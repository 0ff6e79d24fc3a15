#ifndef OD_EXEC_INTERNAL_H_
#define OD_EXEC_INTERNAL_H_

// Helpers shared by the exec operator implementations (operators.cc,
// parallel.cc) — not part of the exec API. Above all the one aggregation
// kernel: every aggregate operator (hash, parallel hash, stream, partial
// combine) accumulates through the same `Acc`, so dop 1 and dop N run the
// same algorithm and NaN handling is written once.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/value.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "exec/batch.h"

namespace od {
namespace exec {
namespace internal {

/// Throws std::out_of_range naming `op` unless `c` is a column of `s` —
/// catches Schema::Find's -1 at operator construction, so per-row accessors
/// stay unchecked.
void CheckColumn(const engine::Schema& s, engine::ColumnId c, const char* op);
void CheckColumns(const engine::Schema& s,
                  const std::vector<engine::ColumnId>& cols, const char* op);
/// The group columns and every non-count aggregate column (a kCount
/// aggregate ignores its column id, even an invalid one).
void CheckAggregateColumns(const engine::Schema& s,
                           const std::vector<engine::ColumnId>& group_cols,
                           const std::vector<engine::AggSpec>& aggs,
                           const char* op);

/// "[a, b, c]" — how EXPLAIN and error messages print column lists.
std::string SpecString(const engine::SortSpec& spec);

/// Output schema of a join: left columns, then right columns with
/// colliding names prefixed by `right_prefix`.
engine::Schema JoinSchema(const engine::Schema& left,
                          const engine::Schema& right,
                          const std::string& right_prefix);

/// Output schema of an aggregate: the group columns, then one column per
/// aggregate (int64 for count, double otherwise).
engine::Schema AggOutputSchema(const engine::Schema& in,
                               const std::vector<engine::ColumnId>& group_cols,
                               const std::vector<engine::AggSpec>& aggs);

/// One aggregate's accumulator: raw moments only, so partials merge
/// exactly (avg = sum / count is finished after the merge, never merged).
struct Acc {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  bool has = false;

  void Add(double v) {
    ++count;
    sum += v;
    // CompareDoubles, not raw `<`: NaN must order totally (ties with NaN,
    // after every value) or min/max stop being associative — and merging
    // per-fragment partials relies on associativity.
    if (!has || CompareDoubles(v, min) < 0) min = v;
    if (!has || CompareDoubles(v, max) > 0) max = v;
    has = true;
  }
  void AddCountOnly() { ++count; }
  void Merge(const Acc& o) {
    count += o.count;
    sum += o.sum;
    if (o.has && (!has || CompareDoubles(o.min, min) < 0)) min = o.min;
    if (o.has && (!has || CompareDoubles(o.max, max) > 0)) max = o.max;
    has |= o.has;
  }
  double Result(engine::AggSpec::Kind kind) const {
    switch (kind) {
      case engine::AggSpec::Kind::kCount: return static_cast<double>(count);
      case engine::AggSpec::Kind::kSum: return sum;
      case engine::AggSpec::Kind::kMin: return min;
      case engine::AggSpec::Kind::kMax: return max;
      case engine::AggSpec::Kind::kAvg: return count == 0 ? 0 : sum / count;
    }
    return 0;
  }
  /// Appends the finished value to `col`: count as int64, the rest double.
  void AppendResult(engine::AggSpec::Kind kind, engine::Column* col) const {
    if (kind == engine::AggSpec::Kind::kCount) {
      col->AppendInt(count);
    } else {
      col->AppendDouble(Result(kind));
    }
  }
};

/// Accumulates row `r` of `b` into `accs` (one Acc per aggregate).
inline void Accumulate(const std::vector<engine::AggSpec>& aggs,
                       const Batch& b, int64_t r, std::vector<Acc>* accs) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == engine::AggSpec::Kind::kCount) {
      (*accs)[a].AddCountOnly();
    } else {
      (*accs)[a].Add(b.col(aggs[a].col).Numeric(r));
    }
  }
}

/// The hash-aggregation state of one pipeline: binary group key -> slot,
/// plus each group's key values (for emitting) and one Acc per aggregate.
/// Slots are numbered in first-seen order, and Merge and Emit keep it.
struct LocalAgg {
  std::unordered_map<std::string, int64_t> slots;
  std::vector<std::vector<Value>> group_vals;
  std::vector<std::vector<Acc>> accs;

  /// Folds every row of `b` into its group.
  void Add(const Batch& b, const std::vector<engine::ColumnId>& group_cols,
           const std::vector<engine::AggSpec>& aggs);
  /// Folds `other`'s groups into this one, in `other`'s slot order (groups
  /// new to this state are appended after the existing ones).
  void Merge(LocalAgg&& other);
  /// Appends one row per group, in slot order, to `out` (whose schema is
  /// AggOutputSchema of the same group columns and aggregates).
  void Emit(const std::vector<engine::AggSpec>& aggs, engine::Table* out) const;
};

}  // namespace internal
}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_INTERNAL_H_
