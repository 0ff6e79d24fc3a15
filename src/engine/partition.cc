#include "engine/partition.h"

#include <algorithm>
#include <limits>

#include "engine/ops.h"

namespace od {
namespace engine {

PartitionedTable PartitionedTable::PartitionByRange(const Table& t,
                                                    ColumnId part_col,
                                                    int num_partitions) {
  PartitionedTable out;
  out.part_col_ = part_col;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    lo = std::min(lo, t.col(part_col).Int(i));
    hi = std::max(hi, t.col(part_col).Int(i));
  }
  if (t.num_rows() == 0) {
    lo = 0;
    hi = 0;
  }
  const int64_t span = hi - lo + 1;
  const int64_t width = std::max<int64_t>(1, (span + num_partitions - 1) /
                                                 num_partitions);
  std::vector<std::vector<int64_t>> buckets(num_partitions);
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    int b = static_cast<int>((t.col(part_col).Int(i) - lo) / width);
    b = std::min(b, num_partitions - 1);
    buckets[b].push_back(i);
  }
  for (int b = 0; b < num_partitions; ++b) {
    out.parts_.push_back(t.Gather(buckets[b]));
    const int64_t range_lo = lo + b * width;
    const int64_t range_hi =
        b == num_partitions - 1 ? hi : lo + (b + 1) * width - 1;
    out.ranges_.emplace_back(range_lo, range_hi);
  }
  return out;
}

int64_t PartitionedTable::total_rows() const {
  int64_t n = 0;
  for (const auto& p : parts_) n += p.num_rows();
  return n;
}

Table PartitionedTable::ScanAll() const {
  std::vector<const Table*> all;
  all.reserve(parts_.size());
  for (const auto& p : parts_) all.push_back(&p);
  return Concat(all);
}

Table PartitionedTable::ScanRange(int64_t lo, int64_t hi,
                                  int* partitions_scanned) const {
  std::vector<const Table*> touched;
  for (int i = 0; i < num_partitions(); ++i) {
    if (Overlaps(i, lo, hi)) touched.push_back(&parts_[i]);
  }
  if (partitions_scanned != nullptr) {
    *partitions_scanned = static_cast<int>(touched.size());
  }
  if (touched.empty()) {
    Table empty(parts_.empty() ? Schema() : parts_[0].schema());
    return empty;
  }
  Table combined = Concat(touched);
  return combined.Gather(FilterRowIds(
      combined, {Predicate{part_col_, Predicate::Op::kBetween, Value(lo),
                           Value(hi)}}));
}

int PartitionedTable::CountOverlapping(int64_t lo, int64_t hi) const {
  int n = 0;
  for (int i = 0; i < num_partitions(); ++i) n += Overlaps(i, lo, hi);
  return n;
}

int64_t PartitionedTable::CountOverlappingRows(int64_t lo, int64_t hi) const {
  int64_t n = 0;
  for (int i = 0; i < num_partitions(); ++i) {
    if (Overlaps(i, lo, hi)) n += parts_[i].num_rows();
  }
  return n;
}

}  // namespace engine
}  // namespace od
