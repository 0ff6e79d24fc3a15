#include "exec/internal.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace od {
namespace exec {
namespace internal {

using engine::AggSpec;
using engine::ColumnId;
using engine::DataType;
using engine::Schema;

void CheckColumn(const Schema& s, ColumnId c, const char* op) {
  if (c < 0 || c >= s.num_columns()) {
    throw std::out_of_range(std::string(op) + ": column id " +
                            std::to_string(c) + " out of range [0, " +
                            std::to_string(s.num_columns()) + ")");
  }
}

void CheckColumns(const Schema& s, const std::vector<ColumnId>& cols,
                  const char* op) {
  for (ColumnId c : cols) CheckColumn(s, c, op);
}

void CheckAggregateColumns(const Schema& s,
                           const std::vector<ColumnId>& group_cols,
                           const std::vector<AggSpec>& aggs, const char* op) {
  CheckColumns(s, group_cols, op);
  for (const auto& a : aggs) {
    if (a.kind != AggSpec::Kind::kCount) CheckColumn(s, a.col, op);
  }
}

std::string SpecString(const engine::SortSpec& spec) {
  std::string out = "[";
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(spec[i]);
  }
  return out + "]";
}

Schema JoinSchema(const Schema& left, const Schema& right,
                  const std::string& right_prefix) {
  Schema out;
  for (int c = 0; c < left.num_columns(); ++c) {
    out.Add(left.col(c).name, left.col(c).type);
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    std::string name = right.col(c).name;
    if (out.Find(name) >= 0) name = right_prefix + name;
    out.Add(name, right.col(c).type);
  }
  return out;
}

Schema AggOutputSchema(const Schema& in, const std::vector<ColumnId>& groups,
                       const std::vector<AggSpec>& aggs) {
  Schema out;
  for (ColumnId c : groups) out.Add(in.col(c).name, in.col(c).type);
  for (const auto& a : aggs) {
    out.Add(a.out_name, a.kind == AggSpec::Kind::kCount ? DataType::kInt64
                                                        : DataType::kDouble);
  }
  return out;
}

namespace {

template <typename T>
void AppendBytes(const T& v, std::string* key) {
  key->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Writes row `row`'s group columns into `key` as a binary string whose
/// equality is group equality: 8 raw bytes per int64; 8 bytes per double
/// with -0 mapped to +0 and every NaN to one NaN (the ties CompareDoubles
/// makes, so hash and stream aggregation form the same groups); a length
/// prefix and the bytes per string, so no two column splits collide.
void GroupKey(const Batch& b, int64_t row,
              const std::vector<ColumnId>& group_cols, std::string* key) {
  key->clear();
  for (ColumnId c : group_cols) {
    const engine::Column& col = b.col(c);
    switch (col.type()) {
      case DataType::kInt64:
        AppendBytes(col.Int(row), key);
        break;
      case DataType::kDouble: {
        double v = col.Double(row);
        if (v == 0) v = 0.0;
        if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
        AppendBytes(v, key);
        break;
      }
      case DataType::kString: {
        const std::string& s = col.Str(row);
        AppendBytes(static_cast<uint64_t>(s.size()), key);
        key->append(s);
        break;
      }
    }
  }
}

}  // namespace

void LocalAgg::Add(const Batch& b, const std::vector<ColumnId>& group_cols,
                   const std::vector<AggSpec>& aggs) {
  // The key buffer lives on this thread's stack, not in the LocalAgg:
  // fragments' LocalAggs sit side by side, and a per-row write into one
  // would contend for the cache line its neighbour reads.
  std::string key;
  for (int64_t r = 0; r < b.num_rows(); ++r) {
    GroupKey(b, r, group_cols, &key);
    auto [it, inserted] =
        slots.try_emplace(key, static_cast<int64_t>(accs.size()));
    if (inserted) {
      std::vector<Value> vals;
      vals.reserve(group_cols.size());
      for (ColumnId c : group_cols) vals.push_back(b.col(c).Get(r));
      group_vals.push_back(std::move(vals));
      accs.emplace_back(aggs.size());
    }
    Accumulate(aggs, b, r, &accs[it->second]);
  }
}

void LocalAgg::Merge(LocalAgg&& other) {
  if (accs.empty()) {
    *this = std::move(other);
    return;
  }
  // Walk `other` in slot order, not hash order, so the merged groups keep
  // first-seen order across fragments.
  std::vector<const std::string*> keys(other.accs.size());
  for (const auto& [key, slot] : other.slots) keys[slot] = &key;
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    auto [it, inserted] =
        slots.try_emplace(*keys[slot], static_cast<int64_t>(accs.size()));
    if (inserted) {
      group_vals.push_back(std::move(other.group_vals[slot]));
      accs.push_back(std::move(other.accs[slot]));
    } else {
      std::vector<Acc>& into = accs[it->second];
      for (size_t a = 0; a < into.size(); ++a) {
        into[a].Merge(other.accs[slot][a]);
      }
    }
  }
}

void LocalAgg::Emit(const std::vector<AggSpec>& aggs,
                    engine::Table* out) const {
  for (size_t g = 0; g < accs.size(); ++g) {
    int c = 0;
    for (const Value& v : group_vals[g]) out->col(c++).Append(v);
    for (size_t a = 0; a < aggs.size(); ++a) {
      accs[g][a].AppendResult(aggs[a].kind, &out->col(c++));
    }
    out->FinishRow();
  }
}

}  // namespace internal
}  // namespace exec
}  // namespace od
