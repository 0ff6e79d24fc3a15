#ifndef OD_ENGINE_PARTITION_H_
#define OD_ENGINE_PARTITION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/table.h"

namespace od {
namespace engine {

/// A horizontally range-partitioned table — the distributed-fact-table
/// setting of Section 2.3: store_sales partitioned by the date surrogate
/// key. Without the surrogate range (natural-date predicates only), every
/// partition must be scanned; with the OD-derived surrogate range, only the
/// overlapping partitions are touched.
class PartitionedTable {
 public:
  /// Splits `t` into `num_partitions` contiguous ranges of `part_col`
  /// (an int64 column). Rows are routed by value range, not row count.
  static PartitionedTable PartitionByRange(const Table& t, ColumnId part_col,
                                           int num_partitions);

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  const Table& partition(int i) const { return parts_[i]; }
  const std::pair<int64_t, int64_t>& range(int i) const { return ranges_[i]; }
  ColumnId partition_column() const { return part_col_; }
  int64_t total_rows() const;

  /// Scans every partition (the baseline when the pruning range is
  /// unknown).
  Table ScanAll() const;

  /// Scans only partitions whose value range intersects [lo, hi], then
  /// filters rows to the range. Returns the number of partitions touched
  /// via `partitions_scanned` if non-null.
  Table ScanRange(int64_t lo, int64_t hi, int* partitions_scanned = nullptr)
      const;

  /// Whether partition `i`'s value range intersects [lo, hi].
  bool Overlaps(int i, int64_t lo, int64_t hi) const {
    return ranges_[i].first <= hi && lo <= ranges_[i].second;
  }
  /// How many partitions [lo, hi] would touch.
  int CountOverlapping(int64_t lo, int64_t hi) const;
  /// How many rows those partitions hold (before filtering to [lo, hi]).
  int64_t CountOverlappingRows(int64_t lo, int64_t hi) const;

 private:
  ColumnId part_col_ = 0;
  std::vector<Table> parts_;
  std::vector<std::pair<int64_t, int64_t>> ranges_;  // inclusive value ranges
};

}  // namespace engine
}  // namespace od

#endif  // OD_ENGINE_PARTITION_H_
