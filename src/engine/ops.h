#ifndef OD_ENGINE_OPS_H_
#define OD_ENGINE_OPS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/table.h"

namespace od {
namespace engine {

/// Storage-level helpers over `Table`: sorting, predicate evaluation and
/// the specs the streaming executor (`src/exec`) consumes. Joins,
/// aggregation, DISTINCT and projection are exec operators only.
///
/// Every function validates its ColumnId arguments once at entry and
/// throws std::out_of_range for an invalid id — in particular the -1 that
/// `Schema::Find` returns for an unknown column name. Per-row accessors
/// stay unchecked.

// ---------------------------------------------------------------------------
// Sorting.

/// A sort specification: the column list of an ORDER BY, all ascending
/// (the paper's setting).
using SortSpec = std::vector<ColumnId>;

/// Stable-sorts `t` by `spec`; the result's ordering property is `spec`.
/// Short-circuits via IsSortedBy: an already-sorted input is returned as a
/// copy with its ordering property set, without paying the sort.
/// `was_sorted` (optional) reports whether the short-circuit fired, so a
/// caller classifying the sort as paid vs avoided does not re-scan.
Table SortBy(const Table& t, const SortSpec& spec,
             bool* was_sorted = nullptr);

/// Whether `t`'s rows are physically sorted by `spec`.
bool IsSortedBy(const Table& t, const SortSpec& spec);

// ---------------------------------------------------------------------------
// Filtering.

struct Predicate {
  enum class Op { kEq, kLt, kLe, kGt, kGe, kBetween };
  ColumnId col;
  Op op;
  Value lo;          // the operand; for kBetween the lower bound (inclusive)
  Value hi = Value();  // for kBetween the upper bound (inclusive)

  bool Matches(const Table& t, int64_t row) const;
};

/// Row ids of `t` satisfying every predicate (a conjunction), in row order.
std::vector<int64_t> FilterRowIds(const Table& t,
                                  const std::vector<Predicate>& preds);

// ---------------------------------------------------------------------------
// Aggregation.

/// One aggregate of a GROUP BY, as the exec aggregate operators take it.
struct AggSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind;
  ColumnId col;          // ignored for kCount
  std::string out_name;
};

// ---------------------------------------------------------------------------
// Misc.

/// Concatenates tables with identical schemas.
Table Concat(const std::vector<const Table*>& tables);

/// True if both tables contain the same multiset of rows (schema-compatible
/// by position). Used by tests and benches to assert plan equivalence.
bool SameRowMultiset(const Table& a, const Table& b);

}  // namespace engine
}  // namespace od

#endif  // OD_ENGINE_OPS_H_
