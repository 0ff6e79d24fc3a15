// Edge-case and failure-injection tests for the engine's storage helpers
// (sort, filter, index, partitions) and the ordering-property and schema
// handling of the exec operators built on them: empty inputs, single rows,
// all-equal keys, ordering-property propagation, and schema handling under
// joins. The exec operators' results on these inputs are checked against
// the naive oracle in tests/exec/exec_test.cc.

#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "engine/table.h"
#include "exec/operator.h"

namespace od {
namespace engine {
namespace {

Table EmptyTable() {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("v", DataType::kDouble);
  return Table(s);
}

TEST(EngineEdgeTest, EmptyTableOperations) {
  Table t = EmptyTable();
  EXPECT_EQ(SortBy(t, {0}).num_rows(), 0);
  EXPECT_TRUE(IsSortedBy(t, {0, 1}));
  EXPECT_TRUE(
      FilterRowIds(t, {Predicate{0, Predicate::Op::kEq, Value(1)}}).empty());
  OrderedIndex idx(&t, {0});
  EXPECT_EQ(idx.ScanAll().num_rows(), 0);
  EXPECT_FALSE(idx.MinKeyAtLeast(0).has_value());
}

TEST(EngineEdgeTest, SingleRow) {
  Table t = EmptyTable();
  t.AppendRow({Value(7), Value(1.5)});
  EXPECT_TRUE(IsSortedBy(t, {0}));
  bool was_sorted = false;
  Table sorted = SortBy(t, {1, 0}, &was_sorted);
  EXPECT_TRUE(was_sorted);
  EXPECT_EQ(sorted.num_rows(), 1);
  EXPECT_EQ(sorted.ordering(), (SortSpec{1, 0}));
}

TEST(EngineEdgeTest, AllEqualKeys) {
  Table t = EmptyTable();
  for (int i = 0; i < 5; ++i) t.AppendRow({Value(3), Value(1.0 * i)});
  EXPECT_TRUE(IsSortedBy(t, {0}));
  // Sorting on the all-equal key is stable: rows keep their order.
  Table sorted = SortBy(t, {0});
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(sorted.col(1).Double(i), 1.0 * i);
  }
  EXPECT_EQ(FilterRowIds(t, {Predicate{0, Predicate::Op::kEq, Value(3)}})
                .size(),
            5u);
}

TEST(EngineEdgeTest, StreamAggOrderingPropagation) {
  Table t = EmptyTable();
  t.AppendRow({Value(1), Value(1.0)});
  t.AppendRow({Value(2), Value(2.0)});
  Table sorted = SortBy(t, {0});
  exec::OpPtr agg = exec::StreamAggregate(exec::Scan(&sorted), {0},
                                          {{AggSpec::Kind::kSum, 1, "s"}});
  // Output column 0 is the group key; the output inherits its order.
  EXPECT_EQ(agg->ordering(), (SortSpec{0}));
  Table g = exec::Drain(agg.get());
  EXPECT_EQ(g.ordering(), (SortSpec{0}));
  EXPECT_TRUE(IsSortedBy(g, {0}));
}

TEST(EngineEdgeTest, FilterPreservesOrderingProperty) {
  Table t = EmptyTable();
  for (int i = 0; i < 6; ++i) t.AppendRow({Value(i), Value(1.0)});
  Table sorted = SortBy(t, {0});
  exec::OpPtr filter = exec::Filter(
      exec::Scan(&sorted), {Predicate{0, Predicate::Op::kGe, Value(2)}});
  EXPECT_EQ(filter->ordering(), (SortSpec{0}));
  Table filtered = exec::Drain(filter.get());
  EXPECT_EQ(filtered.num_rows(), 4);
  EXPECT_EQ(filtered.ordering(), (SortSpec{0}));
  EXPECT_TRUE(IsSortedBy(filtered, {0}));
  // Sorting does not preserve a different prior ordering claim.
  Table resorted = SortBy(filtered, {1});
  EXPECT_EQ(resorted.ordering(), (SortSpec{1}));
}

TEST(EngineEdgeTest, JoinNameCollisionsPrefixed) {
  Schema s1;
  s1.Add("k", DataType::kInt64);
  s1.Add("x", DataType::kInt64);
  Schema s2;
  s2.Add("k", DataType::kInt64);
  s2.Add("x", DataType::kInt64);
  Table a(s1), b(s2);
  a.AppendRow({Value(1), Value(10)});
  b.AppendRow({Value(1), Value(20)});
  Table j = exec::Drain(
      exec::HashJoin(exec::Scan(&a), 0, exec::Scan(&b), 0).get());
  EXPECT_EQ(j.num_columns(), 4);
  EXPECT_GE(j.Find("r_k"), 0);
  EXPECT_GE(j.Find("r_x"), 0);
  EXPECT_EQ(j.col(j.Find("x")).Int(0), 10);
  EXPECT_EQ(j.col(j.Find("r_x")).Int(0), 20);
}

TEST(EngineEdgeTest, PartitionSingleAndDegenerate) {
  Table t = EmptyTable();
  t.AppendRow({Value(5), Value(0.0)});
  PartitionedTable pt = PartitionedTable::PartitionByRange(t, 0, 4);
  EXPECT_EQ(pt.total_rows(), 1);
  EXPECT_EQ(pt.ScanAll().num_rows(), 1);
  int touched = -1;
  EXPECT_EQ(pt.ScanRange(6, 9, &touched).num_rows(), 0);
  // An empty range may still overlap the partition containing value 5's
  // bucket boundaries; correctness is row-level.
  EXPECT_EQ(pt.ScanRange(5, 5, &touched).num_rows(), 1);
}

TEST(EngineEdgeTest, IndexRangeBoundaries) {
  Table t = EmptyTable();
  for (int64_t v : {10, 20, 20, 30}) t.AppendRow({Value(v), Value(0.0)});
  OrderedIndex idx(&t, {0});
  EXPECT_EQ(idx.CountRange(10, 30), 4);
  EXPECT_EQ(idx.CountRange(11, 29), 2);
  EXPECT_EQ(idx.CountRange(20, 20), 2);
  EXPECT_EQ(idx.CountRange(31, 99), 0);
  EXPECT_EQ(idx.MinKeyAtLeast(11).value(), 20);
  EXPECT_EQ(idx.MaxKeyAtMost(29).value(), 20);
}

TEST(EngineEdgeTest, ProjectReordersAndDuplicates) {
  Table t = EmptyTable();
  t.AppendRow({Value(1), Value(2.0)});
  Table p = exec::Drain(exec::Project(exec::Scan(&t), {1, 0, 1}).get());
  EXPECT_EQ(p.num_columns(), 3);
  EXPECT_DOUBLE_EQ(p.col(0).Double(0), 2.0);
  EXPECT_EQ(p.col(1).Int(0), 1);
  EXPECT_DOUBLE_EQ(p.col(2).Double(0), 2.0);
}

TEST(EngineEdgeTest, StringColumnsSortLexicographically) {
  Schema s;
  s.Add("name", DataType::kString);
  Table t(s);
  // The Example 1 trap data.
  for (const char* q : {"second", "first", "fourth", "third"}) {
    t.AppendRow({Value(q)});
  }
  Table sorted = SortBy(t, {0});
  EXPECT_EQ(sorted.col(0).Str(0), "first");
  EXPECT_EQ(sorted.col(0).Str(1), "fourth");  // alphabetical, not calendar!
  EXPECT_EQ(sorted.col(0).Str(2), "second");
  EXPECT_EQ(sorted.col(0).Str(3), "third");
}

TEST(EngineEdgeTest, OperatorsRejectInvalidColumnIds) {
  Table t = EmptyTable();
  t.AppendRow({Value(1), Value(2.0)});
  // Schema::Find returns -1 for unknown names; feeding that id into an
  // operator must throw instead of indexing out of bounds.
  const ColumnId missing = t.Find("no_such_column");
  ASSERT_EQ(missing, -1);
  EXPECT_THROW(SortBy(t, {missing}), std::out_of_range);
  EXPECT_THROW(IsSortedBy(t, {0, missing}), std::out_of_range);
  EXPECT_THROW(
      FilterRowIds(t, {Predicate{missing, Predicate::Op::kEq, Value(1)}}),
      std::out_of_range);
  // The exec operators check their ids once, at construction.
  auto scan = [&t] { return exec::Scan(&t); };
  EXPECT_THROW(
      exec::Filter(scan(), {Predicate{missing, Predicate::Op::kEq, Value(1)}}),
      std::out_of_range);
  EXPECT_THROW(exec::Project(scan(), {0, missing}), std::out_of_range);
  EXPECT_THROW(exec::HashAggregate(scan(), {missing}, {}), std::out_of_range);
  EXPECT_THROW(exec::HashAggregate(scan(), {0},
                                   {{AggSpec::Kind::kSum, missing, "s"}}),
               std::out_of_range);
  EXPECT_THROW(exec::StreamAggregate(scan(), {missing}, {}),
               std::out_of_range);
  EXPECT_THROW(exec::StreamDistinct(scan(), {missing}), std::out_of_range);
  EXPECT_THROW(exec::HashJoin(scan(), missing, scan(), 0), std::out_of_range);
  EXPECT_THROW(exec::HashJoin(scan(), 0, scan(), 99), std::out_of_range);
  EXPECT_THROW(exec::MergeJoin(scan(), 0, scan(), missing), std::out_of_range);
  // A kCount aggregate ignores its column id — even an invalid one.
  EXPECT_NO_THROW(exec::HashAggregate(scan(), {0},
                                      {{AggSpec::Kind::kCount, -1, "n"}}));
}

}  // namespace
}  // namespace engine
}  // namespace od
