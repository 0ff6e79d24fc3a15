#include "optimizer/reduce_order.h"

#include <gtest/gtest.h>

#include "core/parser.h"
#include "optimizer/order_property.h"

namespace od {
namespace opt {
namespace {

prover::Prover MakeProver(NameTable* names, const std::string& ods) {
  Parser parser(names);
  auto m = parser.ParseSet(ods);
  EXPECT_TRUE(m.has_value()) << parser.error();
  return prover::Prover(*m);
}

TEST(ReduceOrderTest, FdEliminatesTrailingQuarter) {
  // ReduceOrder (FD-only, [17]): year, month, quarter → year, month,
  // because {month} functionally determines quarter and precedes it.
  NameTable names;
  prover::Prover pv = MakeProver(&names, "[month] -> [quarter]");
  const AttributeId year = names.Intern("year");
  const AttributeId month = names.Lookup("month");
  const AttributeId quarter = names.Lookup("quarter");
  auto result = ReduceOrder(pv, AttributeList({year, month, quarter}));
  EXPECT_EQ(result.reduced, AttributeList({year, month}));
  EXPECT_EQ(result.eliminated(AttributeList({year, month, quarter})), 1);
}

TEST(ReduceOrderTest, FdCannotEliminateInterveningQuarter) {
  // The Example 1 failure of FD-only rewriting: quarter sits BEFORE month,
  // so no prefix determines it; ReduceOrder keeps all three.
  NameTable names;
  prover::Prover pv = MakeProver(&names, "[month] -> [quarter]");
  const AttributeId year = names.Intern("year");
  const AttributeId quarter = names.Lookup("quarter");
  const AttributeId month = names.Lookup("month");
  const AttributeList order({year, quarter, month});
  auto result = ReduceOrder(pv, order);
  EXPECT_EQ(result.reduced, order);
}

TEST(ReduceOrderPlusTest, OdEliminatesInterveningQuarter) {
  // ReduceOrder+ (the paper): the postfix [month] ORDERS quarter, so
  // year, quarter, month → year, month (Theorem 8, Left Eliminate).
  NameTable names;
  prover::Prover pv = MakeProver(&names, "[month] -> [quarter]");
  const AttributeId year = names.Intern("year");
  const AttributeId quarter = names.Lookup("quarter");
  const AttributeId month = names.Lookup("month");
  auto result = ReduceOrderPlus(pv, AttributeList({year, quarter, month}));
  EXPECT_EQ(result.reduced, AttributeList({year, month}));
  ASSERT_FALSE(result.log.empty());
  EXPECT_NE(result.log[0].find("Left Eliminate"), std::string::npos);
}

TEST(ReduceOrderPlusTest, PaperListSensitivity) {
  // Section 2.3: given D ↦ B, ABD reduces to AD but ABCD does NOT reduce —
  // the intervening C invalidates the rewrite.
  NameTable names;
  prover::Prover pv = MakeProver(&names, "[d] -> [b]");
  const AttributeId a = names.Intern("a");
  const AttributeId b = names.Lookup("b");
  const AttributeId c = names.Intern("c");
  const AttributeId d = names.Lookup("d");
  EXPECT_EQ(ReduceOrderPlus(pv, AttributeList({a, b, d})).reduced,
            AttributeList({a, d}));
  EXPECT_EQ(ReduceOrderPlus(pv, AttributeList({a, b, c, d})).reduced,
            AttributeList({a, b, c, d}));
  // But D ↦ BC would allow ABCD → AD (the paper's remark).
  prover::Prover pv2 = MakeProver(&names, "[d] -> [b, c]");
  EXPECT_EQ(ReduceOrderPlus(pv2, AttributeList({a, b, c, d})).reduced,
            AttributeList({a, d}));
}

TEST(ReduceOrderPlusTest, DuplicatesRemovedByNormalization) {
  NameTable names;
  prover::Prover pv = MakeProver(&names, "");
  const AttributeList order({0, 1, 0, 2, 1});
  auto result = ReduceOrderPlus(pv, order);
  EXPECT_EQ(result.reduced, AttributeList({0, 1, 2}));
}

TEST(ReduceOrderPlusTest, ConstantAttributesDrop) {
  // A constant attribute is functionally determined by the empty prefix.
  NameTable names;
  prover::Prover pv = MakeProver(&names, "[] -> [k]");
  const AttributeId k = names.Lookup("k");
  const AttributeId a = names.Intern("a");
  auto result = ReduceOrderPlus(pv, AttributeList({k, a}));
  EXPECT_EQ(result.reduced, AttributeList({a}));
}

TEST(ReduceOrderPlusTest, CascadingElimination) {
  // income orders bracket and tax: ORDER BY bracket, tax, income collapses
  // to income alone (Example 5 + Left Eliminate applied twice).
  NameTable names;
  prover::Prover pv =
      MakeProver(&names, "[income] -> [bracket]; [income] -> [tax]");
  const AttributeId income = names.Lookup("income");
  const AttributeId bracket = names.Lookup("bracket");
  const AttributeId tax = names.Lookup("tax");
  auto result = ReduceOrderPlus(pv, AttributeList({bracket, tax, income}));
  EXPECT_EQ(result.reduced, AttributeList({income}));
}

TEST(ReduceGroupByTest, FdEquivalenceOnly) {
  NameTable names;
  prover::Prover pv = MakeProver(&names, "[month] -> [quarter]");
  const AttributeId year = names.Intern("year");
  const AttributeId quarter = names.Lookup("quarter");
  const AttributeId month = names.Lookup("month");
  // Group-by is set-based: quarter is redundant given month.
  EXPECT_EQ(ReduceGroupBy(pv, AttributeSet({year, quarter, month})),
            AttributeSet({year, month}));
  // month is NOT redundant given quarter (quarter does not determine it).
  EXPECT_EQ(ReduceGroupBy(pv, AttributeSet({quarter, month})),
            AttributeSet({month}));
}

TEST(OrderReasonerTest, ProvidesVsEquivalent) {
  NameTable names;
  Parser parser(&names);
  auto m = parser.ParseSet("[month] -> [quarter]");
  ASSERT_TRUE(m.has_value());
  OrderReasoner reasoner(*m);
  const engine::ColumnId year = names.Intern("year");
  const engine::ColumnId quarter = names.Lookup("quarter");
  const engine::ColumnId month = names.Lookup("month");
  // A [year, month] stream provides ORDER BY [year, quarter, month] and
  // ORDER BY [year, quarter]; the converse directions do not all hold.
  EXPECT_TRUE(reasoner.Provides({year, month}, {year, quarter, month}));
  EXPECT_TRUE(reasoner.Provides({year, month}, {year, quarter}));
  EXPECT_TRUE(reasoner.Equivalent({year, month}, {year, quarter, month}));
  EXPECT_FALSE(reasoner.Provides({year, quarter}, {year, month}));
  EXPECT_FALSE(reasoner.Equivalent({year, quarter}, {year, month}));
}

TEST(OrderReasonerTest, GroupContiguity) {
  NameTable names;
  Parser parser(&names);
  auto m = parser.ParseSet("[month] -> [quarter]");
  ASSERT_TRUE(m.has_value());
  OrderReasoner reasoner(*m);
  const engine::ColumnId year = names.Intern("year");
  const engine::ColumnId quarter = names.Lookup("quarter");
  const engine::ColumnId month = names.Lookup("month");
  // Sorting by [year, month] makes [year, quarter, month] groups
  // contiguous (quarter is determined), enabling stream aggregation.
  EXPECT_TRUE(
      reasoner.GroupsContiguousUnder({year, month}, {year, quarter, month}));
  // Sorting by year alone does not make month groups contiguous.
  EXPECT_FALSE(reasoner.GroupsContiguousUnder({year}, {year, month}));
}

}  // namespace
}  // namespace opt
}  // namespace od
