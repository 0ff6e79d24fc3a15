#include <gtest/gtest.h>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "engine/table.h"

namespace od {
namespace engine {
namespace {

Table MakeSales() {
  Schema schema;
  schema.Add("day", DataType::kInt64);
  schema.Add("store", DataType::kInt64);
  schema.Add("amount", DataType::kDouble);
  Table t(schema);
  // day, store, amount
  t.AppendRow({Value(3), Value(1), Value(30.0)});
  t.AppendRow({Value(1), Value(2), Value(10.0)});
  t.AppendRow({Value(2), Value(1), Value(20.0)});
  t.AppendRow({Value(1), Value(1), Value(15.0)});
  t.AppendRow({Value(3), Value(2), Value(5.0)});
  return t;
}

TEST(TableTest, SchemaAndAccess) {
  Table t = MakeSales();
  EXPECT_EQ(t.num_rows(), 5);
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.Find("store"), 1);
  EXPECT_EQ(t.Find("missing"), -1);
  EXPECT_EQ(t.col(0).Int(0), 3);
  EXPECT_DOUBLE_EQ(t.col(2).Double(1), 10.0);
}

TEST(TableTest, GatherAndCompare) {
  Table t = MakeSales();
  Table g = t.Gather({1, 3});
  EXPECT_EQ(g.num_rows(), 2);
  EXPECT_EQ(g.col(0).Int(0), 1);
  EXPECT_EQ(g.col(1).Int(1), 1);
  EXPECT_LT(t.CompareRows(1, 0, {0}), 0);  // day 1 < day 3
  EXPECT_EQ(t.CompareRows(1, 3, {0}), 0);  // equal days
  EXPECT_GT(t.CompareRows(1, 3, {0, 1}), 0);  // tie broken by store 2 > 1
}

TEST(SortTest, SortAndOrderingProperty) {
  Table t = MakeSales();
  EXPECT_FALSE(IsSortedBy(t, {0}));
  Table sorted = SortBy(t, {0, 1});
  EXPECT_TRUE(IsSortedBy(sorted, {0, 1}));
  EXPECT_TRUE(IsSortedBy(sorted, {0}));  // prefix is sorted too
  EXPECT_EQ(sorted.ordering(), (SortSpec{0, 1}));
  EXPECT_EQ(sorted.col(0).Int(0), 1);
  EXPECT_EQ(sorted.col(0).Int(4), 3);
}

TEST(SortTest, StableSortPreservesTies) {
  Table t = MakeSales();
  Table sorted = SortBy(t, {0});
  // Rows with day=1 keep their original relative order (store 2 then 1).
  EXPECT_EQ(sorted.col(1).Int(0), 2);
  EXPECT_EQ(sorted.col(1).Int(1), 1);
}

TEST(FilterTest, PredicatesAndConjunction) {
  Table t = MakeSales();
  auto count = [&t](const std::vector<Predicate>& preds) {
    return FilterRowIds(t, preds).size();
  };
  EXPECT_EQ(count({Predicate{1, Predicate::Op::kEq, Value(1)}}), 3u);
  EXPECT_EQ(count({Predicate{0, Predicate::Op::kBetween, Value(1), Value(2)}}),
            3u);
  EXPECT_EQ(count({Predicate{1, Predicate::Op::kEq, Value(1)},
                   Predicate{0, Predicate::Op::kGe, Value(2)}}),
            2u);
  EXPECT_EQ(count({Predicate{2, Predicate::Op::kLt, Value(15.0)}}), 2u);
  // Row ids come back in row order.
  EXPECT_EQ(FilterRowIds(t, {Predicate{1, Predicate::Op::kEq, Value(1)}}),
            (std::vector<int64_t>{0, 2, 3}));
}

TEST(IndexTest, OrderedScanAndRange) {
  Table t = MakeSales();
  OrderedIndex idx(&t, {0});
  Table all = idx.ScanAll();
  EXPECT_TRUE(IsSortedBy(all, {0}));
  EXPECT_EQ(all.ordering(), (SortSpec{0}));
  Table range = idx.ScanRange(1, 2);
  EXPECT_EQ(range.num_rows(), 3);
  EXPECT_EQ(idx.CountRange(1, 2), 3);
  EXPECT_EQ(idx.CountRange(4, 9), 0);
  EXPECT_EQ(idx.MinKeyAtLeast(2).value(), 2);
  EXPECT_EQ(idx.MaxKeyAtMost(2).value(), 2);
  EXPECT_FALSE(idx.MinKeyAtLeast(4).has_value());
  EXPECT_FALSE(idx.MaxKeyAtMost(0).has_value());
}

TEST(PartitionTest, RoutingAndPruning) {
  Schema s;
  s.Add("k", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 100; ++i) t.AppendRow({Value(i)});
  PartitionedTable pt = PartitionedTable::PartitionByRange(t, 0, 10);
  EXPECT_EQ(pt.num_partitions(), 10);
  EXPECT_EQ(pt.total_rows(), 100);
  EXPECT_EQ(pt.ScanAll().num_rows(), 100);
  int touched = 0;
  Table ranged = pt.ScanRange(25, 34, &touched);
  EXPECT_EQ(ranged.num_rows(), 10);
  EXPECT_EQ(touched, 2);  // partitions [20,29] and [30,39]
  EXPECT_EQ(pt.CountOverlapping(0, 99), 10);
  EXPECT_EQ(pt.CountOverlapping(5, 5), 1);
}

TEST(SameRowMultisetTest, DetectsDifferences) {
  Table a = MakeSales();
  Table b = SortBy(a, {0, 1});  // same rows, different order
  EXPECT_TRUE(SameRowMultiset(a, b));
  Table c = a.Gather({0, 1, 2, 3});
  EXPECT_FALSE(SameRowMultiset(a, c));
}

}  // namespace
}  // namespace engine
}  // namespace od
