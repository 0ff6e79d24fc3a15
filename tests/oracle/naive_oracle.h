#ifndef OD_TESTS_ORACLE_NAIVE_ORACLE_H_
#define OD_TESTS_ORACLE_NAIVE_ORACLE_H_

// A deliberately naive reference evaluator for the executor tests. It
// shares no code with the exec operators: GROUP BY is a std::map from the
// group's key values to the raw values of each aggregate column, folded
// only when the group is emitted; a join is a nested loop over int64
// keys. Slow and obviously right — the executor's aggregation kernel and
// joins are checked against it, never against each other.
//
// Result shapes follow the executor: an aggregate yields the group columns
// then one column per aggregate (int64 count, double otherwise); a join
// yields the left columns then the right ones, a colliding right name
// prefixed "r_". Groups come out in key order (std::map), join rows in
// left-row order.

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <vector>

#include "core/value.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "optimizer/planner.h"

namespace od {
namespace oracle {

using engine::AggSpec;
using engine::ColumnId;
using engine::DataType;
using engine::Schema;
using engine::Table;

/// Rows of `t` matching every predicate.
inline Table Select(const Table& t,
                    const std::vector<engine::Predicate>& preds) {
  Table out(t.schema());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    bool keep = true;
    for (const auto& p : preds) keep = keep && p.Matches(t, r);
    if (!keep) continue;
    std::vector<Value> row;
    for (int c = 0; c < t.num_columns(); ++c) row.push_back(t.col(c).Get(r));
    out.AppendRow(row);
  }
  return out;
}

/// GROUP BY `group_cols` computing `aggs`. NaN-aware min/max through
/// CompareDoubles: NaN ties with NaN and orders after every number.
inline Table GroupBy(const Table& t, const std::vector<ColumnId>& group_cols,
                     const std::vector<AggSpec>& aggs) {
  Schema schema;
  for (ColumnId c : group_cols) {
    schema.Add(t.schema().col(c).name, t.schema().col(c).type);
  }
  for (const auto& a : aggs) {
    schema.Add(a.out_name, a.kind == AggSpec::Kind::kCount ? DataType::kInt64
                                                           : DataType::kDouble);
  }
  // key values -> per aggregate, every input value of the group.
  std::map<std::vector<Value>, std::vector<std::vector<double>>> groups;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> key;
    for (ColumnId c : group_cols) key.push_back(t.col(c).Get(r));
    auto& values = groups[key];
    values.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      values[a].push_back(aggs[a].kind == AggSpec::Kind::kCount
                              ? 0.0
                              : t.col(aggs[a].col).Numeric(r));
    }
  }
  Table out(schema);
  for (const auto& [key, values] : groups) {
    std::vector<Value> row = key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const std::vector<double>& v = values[a];
      const double sum = std::accumulate(v.begin(), v.end(), 0.0);
      auto less = [](double x, double y) { return CompareDoubles(x, y) < 0; };
      switch (aggs[a].kind) {
        case AggSpec::Kind::kCount:
          row.emplace_back(static_cast<int64_t>(v.size()));
          break;
        case AggSpec::Kind::kSum:
          row.emplace_back(sum);
          break;
        case AggSpec::Kind::kMin:
          row.emplace_back(*std::min_element(v.begin(), v.end(), less));
          break;
        case AggSpec::Kind::kMax:
          row.emplace_back(*std::max_element(v.begin(), v.end(), less));
          break;
        case AggSpec::Kind::kAvg:
          row.emplace_back(sum / static_cast<double>(v.size()));
          break;
      }
    }
    out.AppendRow(row);
  }
  return out;
}

/// Nested-loop equi-join on int64 columns.
inline Table EquiJoin(const Table& left, ColumnId left_key, const Table& right,
                      ColumnId right_key) {
  Schema schema = left.schema();
  for (int c = 0; c < right.num_columns(); ++c) {
    std::string name = right.schema().col(c).name;
    if (schema.Find(name) >= 0) name = "r_" + name;
    schema.Add(name, right.schema().col(c).type);
  }
  Table out(schema);
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      if (left.col(left_key).Int(l) != right.col(right_key).Int(r)) continue;
      std::vector<Value> row;
      for (int c = 0; c < left.num_columns(); ++c) {
        row.push_back(left.col(c).Get(l));
      }
      for (int c = 0; c < right.num_columns(); ++c) {
        row.push_back(right.col(c).Get(r));
      }
      out.AppendRow(row);
    }
  }
  return out;
}

/// The answer to `q` by definition: filter every table, join in
/// JoinClause order, aggregate, stably sort by ORDER BY, apply LIMIT.
/// Ignores ODs, indexes and partitions — they may change a plan, never
/// the answer.
inline Table Evaluate(const opt::LogicalQuery& q) {
  auto filters = [&](size_t i) {
    return i < q.filters.size() ? q.filters[i]
                                : std::vector<engine::Predicate>();
  };
  Table t = Select(*q.tables[0].table, filters(0));
  for (const auto& j : q.joins) {
    t = EquiJoin(t, j.left_col,
                 Select(*q.tables[j.right_table].table, filters(j.right_table)),
                 j.right_col);
  }
  engine::SortSpec order = q.order_by;
  if (!q.group_cols.empty() || !q.aggs.empty()) {
    t = GroupBy(t, q.group_cols, q.aggs);
    // ORDER BY names driving-table columns; the output holds group columns.
    for (ColumnId& c : order) {
      c = static_cast<ColumnId>(
          std::find(q.group_cols.begin(), q.group_cols.end(), c) -
          q.group_cols.begin());
    }
  }
  if (!order.empty()) t = engine::SortBy(t, order);
  if (q.limit >= 0 && q.limit < t.num_rows()) {
    std::vector<int64_t> keep(static_cast<size_t>(q.limit));
    std::iota(keep.begin(), keep.end(), 0);
    t = t.Gather(keep);
  }
  return t;
}

}  // namespace oracle
}  // namespace od

#endif  // OD_TESTS_ORACLE_NAIVE_ORACLE_H_
