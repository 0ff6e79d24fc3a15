#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine/index.h"
#include "engine/partition.h"
#include "optimizer/date_rewrite.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace opt {
namespace {

using engine::DataType;
using engine::Schema;
using engine::Table;

Table SmallTable() {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("v", DataType::kDouble);
  Table t(s);
  for (int64_t i = 0; i < 10; ++i) {
    t.AppendRow({Value(i % 3), Value(static_cast<double>(i))});
  }
  return t;
}

/// SELECT k, <aggs> FROM t WHERE <preds> GROUP BY k [ORDER BY k].
LogicalQuery SmallQuery(const Table* t, std::vector<engine::Predicate> preds,
                        bool order_by) {
  LogicalQuery q;
  q.name = "small";
  q.tables.push_back(TableRef{"t", t, nullptr, nullptr, nullptr, nullptr, -1});
  q.filters = {std::move(preds)};
  q.group_cols = {0};
  q.aggs = {{engine::AggSpec::Kind::kSum, 1, "sum_v"}};
  if (order_by) q.order_by = {0};
  return q;
}

TEST(PlanTest, ScanFilterSortAgg) {
  Table t = SmallTable();
  ExecStats stats;
  Table result =
      PlanQuery(SmallQuery(
                    &t, {engine::Predicate{0, engine::Predicate::Op::kGe,
                                           Value(1)}},
                    /*order_by=*/false))
          .Execute(&stats);
  EXPECT_EQ(result.num_rows(), 2);  // k ∈ {1, 2}
  EXPECT_EQ(stats.rows_scanned, 10);

  // Without ODs an ORDER BY on the unsorted k pays a sort enforcer.
  LogicalQuery order_q;
  order_q.name = "order_by_k";
  order_q.tables.push_back(
      TableRef{"t", &t, nullptr, nullptr, nullptr, nullptr, -1});
  order_q.order_by = {0, 1};
  ExecStats stats2;
  Table sorted_result = PlanQuery(order_q).Execute(&stats2);
  EXPECT_EQ(stats2.sorts, 1);
  EXPECT_EQ(sorted_result.num_rows(), 10);
  EXPECT_TRUE(engine::IsSortedBy(sorted_result, {0, 1}));
}

TEST(PlanTest, StreamVsHashAggEquivalentOnSortedInput) {
  Table t = SmallTable();
  // An index on k delivers the group order: the planner streams the
  // aggregate off it instead of hashing, and both agree.
  engine::OrderedIndex index(&t, {0});
  LogicalQuery hash_q = SmallQuery(&t, {}, /*order_by=*/false);
  LogicalQuery stream_q = hash_q;
  stream_q.tables[0].index = &index;
  PhysicalPlan hash_plan = PlanQuery(hash_q);
  PhysicalPlan stream_plan = PlanQuery(stream_q);
  ASSERT_NE(hash_plan.Explain().find("HashAggregate"), std::string::npos);
  ASSERT_NE(stream_plan.Explain().find("StreamAggregate"), std::string::npos);
  ExecStats s1, s2;
  Table a = hash_plan.Execute(&s1);
  Table b = stream_plan.Execute(&s2);
  EXPECT_TRUE(engine::SameRowMultiset(a, b));
  EXPECT_EQ(s2.sorts, 0);
}

TEST(PlanTest, DescribeMentionsShape) {
  Table t = SmallTable();
  const std::string desc =
      PlanQuery(SmallQuery(&t, {}, /*order_by=*/true)).Explain();
  EXPECT_NE(desc.find("HashAggregate"), std::string::npos);
  EXPECT_NE(desc.find("Sort"), std::string::npos);
  EXPECT_NE(desc.find("Scan"), std::string::npos);
}

class DateRewriteTest : public ::testing::Test {
 protected:
  static constexpr int kStartYear = 1998;
  static constexpr int kYears = 4;
  void SetUp() override {
    dim_ = warehouse::GenerateDateDim(kStartYear, kYears);
    const int64_t first_sk = dim_.col(0).Int(0);
    fact_ = warehouse::GenerateStoreSales(/*num_rows=*/20000, first_sk,
                                          dim_.num_rows(), /*num_items=*/50,
                                          /*num_stores=*/10, /*seed=*/42);
  }
  engine::Table dim_;
  engine::Table fact_;
};

TEST_F(DateRewriteTest, ApplicabilityRequiresSurrogateOd) {
  OrderReasoner with_od(warehouse::DateDimOds());
  const warehouse::DateDimColumns d;
  EXPECT_TRUE(RewriteApplicable(with_od, d.d_date_sk, d.d_date));
  OrderReasoner without((DependencySet()));
  EXPECT_FALSE(RewriteApplicable(without, d.d_date_sk, d.d_date));
}

TEST_F(DateRewriteTest, SurrogateRangeMatchesPredicate) {
  const warehouse::DateDimColumns d;
  const std::vector<engine::Predicate> preds{
      {d.d_year, engine::Predicate::Op::kEq, Value(int64_t{kStartYear + 1})}};
  auto range = SurrogateKeyRange(dim_, d.d_date_sk, preds);
  ASSERT_TRUE(range.has_value());
  // A non-leap/leap year has 365/366 days; 1999 has 365.
  EXPECT_EQ(range->second - range->first + 1, 365);
  EXPECT_TRUE(QualifyingRowsContiguous(dim_, d.d_date_sk, preds));
}

TEST_F(DateRewriteTest, AllThirteenQueriesRewriteCorrectly) {
  const warehouse::DateDimColumns d;
  engine::OrderedIndex fact_index(&fact_, {0});
  auto dim_ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  ASSERT_EQ(queries.size(), 13u);
  for (const auto& q : queries) {
    // Precondition: contiguity of the qualifying dimension rows.
    EXPECT_TRUE(QualifyingRowsContiguous(dim_, d.d_date_sk,
                                         q.dim_predicates))
        << q.name;
    auto range = SurrogateKeyRange(dim_, d.d_date_sk, q.dim_predicates);
    ASSERT_TRUE(range.has_value()) << q.name;

    // The same query planned without and with the surrogate-key OD.
    ExecStats base_stats, rewrite_stats;
    Table baseline =
        PlanQuery(warehouse::ToLogicalQuery(q, &fact_, &dim_, &fact_index,
                                            nullptr, /*dim_ods=*/nullptr))
            .Execute(&base_stats);
    PhysicalPlan plan = PlanQuery(warehouse::ToLogicalQuery(
        q, &fact_, &dim_, &fact_index, nullptr, dim_ods));
    Table rewritten = plan.Execute(&rewrite_stats);
    EXPECT_TRUE(engine::SameRowMultiset(baseline, rewritten)) << q.name;
    // The rewritten plan scans the probed surrogate range, performs no
    // join and scans fewer rows.
    const std::string range_text = "range=[" + std::to_string(range->first) +
                                   ", " + std::to_string(range->second) + "]";
    EXPECT_NE(plan.Explain().find(range_text), std::string::npos) << q.name;
    EXPECT_EQ(rewrite_stats.joins, 0) << q.name;
    EXPECT_EQ(base_stats.joins, 1) << q.name;
    EXPECT_LT(rewrite_stats.rows_scanned, base_stats.rows_scanned) << q.name;
  }
}

TEST_F(DateRewriteTest, PartitionPruning) {
  engine::PartitionedTable parts =
      engine::PartitionedTable::PartitionByRange(fact_, 0, 16);
  auto dim_ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  const auto& q = queries[0];  // a one-year predicate over four years

  // No index: the fact is reachable through its partitions only.
  ExecStats base_stats, rewrite_stats;
  Table baseline = PlanQuery(warehouse::ToLogicalQuery(
                                 q, &fact_, &dim_, nullptr, &parts,
                                 /*dim_ods=*/nullptr))
                       .Execute(&base_stats);
  Table rewritten =
      PlanQuery(warehouse::ToLogicalQuery(q, &fact_, &dim_, nullptr, &parts,
                                          dim_ods))
          .Execute(&rewrite_stats);
  EXPECT_TRUE(engine::SameRowMultiset(baseline, rewritten));
  EXPECT_EQ(base_stats.joins, 1);
  EXPECT_EQ(rewrite_stats.joins, 0);
  EXPECT_LT(rewrite_stats.partitions_scanned, 16 / 2);
}

}  // namespace
}  // namespace opt
}  // namespace od
