#ifndef OD_ENGINE_INDEX_H_
#define OD_ENGINE_INDEX_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "engine/ops.h"
#include "engine/table.h"

namespace od {
namespace engine {

/// An ordered (B-tree-like) secondary index: a permutation of the base
/// table's rows sorted by a key column list. Supports the two access paths
/// the paper's rewrites need:
///   * ordered scans (tuples stream out sorted by the key — the "index
///     provides the interesting order" case of Example 1);
///   * range scans on a leading int64 key (the fact-table surrogate-key
///     range of the date rewrite in [18]).
class OrderedIndex {
 public:
  OrderedIndex(const Table* table, SortSpec key);

  const SortSpec& key() const { return key_; }
  const Table& table() const { return *table_; }

  /// Full scan in key order. The result's ordering property is the key.
  Table ScanAll() const;

  /// Rows whose leading key column value lies in [lo, hi], in key order.
  Table ScanRange(int64_t lo, int64_t hi) const;

  /// Number of indexed rows in [lo, hi] on the leading key column.
  int64_t CountRange(int64_t lo, int64_t hi) const;

  /// Smallest / largest leading-key value at least / at most the bound —
  /// the "two probes" of the paper's surrogate-key rewrite.
  std::optional<int64_t> MinKeyAtLeast(int64_t lo) const;
  std::optional<int64_t> MaxKeyAtMost(int64_t hi) const;

  // Streaming access (src/exec): positions are 0-based offsets into the
  // key-sorted permutation, so a scan can gather one batch at a time
  // instead of materializing the whole key-ordered table up front.
  int64_t num_rows() const { return static_cast<int64_t>(perm_.size()); }
  /// Base-table row ids at key-order positions `pos`, `pos + 1`, ... up
  /// to num_rows() (a pointer into the permutation, for batch gathers).
  const int64_t* RowsFrom(int64_t pos) const { return perm_.data() + pos; }
  /// Key-order position half-open range [begin, end) whose leading key
  /// values lie in [lo, hi].
  std::pair<int64_t, int64_t> PositionRange(int64_t lo, int64_t hi) const {
    return {LowerBound(lo), UpperBound(hi)};
  }

 private:
  /// Positions in perm_ of the first key ≥ v / first key > v.
  int64_t LowerBound(int64_t v) const;
  int64_t UpperBound(int64_t v) const;

  const Table* table_;
  SortSpec key_;
  std::vector<int64_t> perm_;
};

}  // namespace engine
}  // namespace od

#endif  // OD_ENGINE_INDEX_H_
