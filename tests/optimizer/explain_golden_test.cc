// Golden EXPLAIN fixtures: every warehouse query the planner serves — the
// thirteen TPC-DS-style date templates, the daily-sales report and the
// Example 5 tax ORDER BY — planned with ODs on and off, at dop 1 and dop 4,
// over fixed seeded inputs (the dop-4 plans zero the per-fragment startup
// cost, so these test-sized inputs take the parallel shapes: exchanges,
// ordered merges, partial aggregates). Each case executes its plan and
// renders the EXPLAIN tree (estimated and actual rows per node, the OD
// proofs), the plan-shape counters and a digest of the answer, then
// compares the text byte for byte with tests/optimizer/golden/<case>.exp.
//
// A mismatch (or a missing fixture) writes the actual text to <case>.out in
// the test's working directory; when a plan change is intended, review the
// difference and copy the .out file over the fixture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

#ifndef OD_GOLDEN_DIR
#error "OD_GOLDEN_DIR must name the fixture directory"
#endif

namespace od {
namespace opt {
namespace {

using engine::Table;

constexpr int kStartYear = 1998;
constexpr int kYears = 4;

/// The fixed inputs every case plans over.
struct Inputs {
  Table dim, fact, taxes;
  std::unique_ptr<engine::OrderedIndex> fact_index, income_index;
  std::unique_ptr<engine::PartitionedTable> parts;
  std::shared_ptr<theory::Theory> dim_ods, tax_ods;

  Inputs() {
    dim = warehouse::GenerateDateDim(kStartYear, kYears);
    fact = warehouse::GenerateStoreSales(/*num_rows=*/12000,
                                         dim.col(0).Int(0), dim.num_rows(),
                                         /*num_items=*/50, /*num_stores=*/10,
                                         /*seed=*/42);
    fact_index =
        std::make_unique<engine::OrderedIndex>(&fact, engine::SortSpec{0});
    parts = std::make_unique<engine::PartitionedTable>(
        engine::PartitionedTable::PartitionByRange(fact, 0, 16));
    taxes = warehouse::GenerateTaxTable(/*num_rows=*/8000,
                                        /*max_income=*/250000, /*seed=*/7);
    income_index = std::make_unique<engine::OrderedIndex>(
        &taxes, engine::SortSpec{warehouse::TaxColumns().income});
    dim_ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
    tax_ods = std::make_shared<theory::Theory>(warehouse::TaxOds());
  }
};

const Inputs& Shared() {
  static const Inputs* inputs = new Inputs();
  return *inputs;
}

/// Case names: the thirteen templates, then the two order-aware showcases.
std::vector<std::string> CaseNames() {
  std::vector<std::string> names;
  for (const auto& q : warehouse::TpcdsDateQueries(kStartYear, kYears)) {
    names.push_back(q.name);
  }
  names.push_back("daily_sales");
  names.push_back("tax_order_by");
  return names;
}

LogicalQuery MakeQuery(const std::string& name, bool ods) {
  const Inputs& in = Shared();
  if (name == "tax_order_by") {
    return warehouse::TaxOrderByQuery(&in.taxes, in.income_index.get(),
                                      ods ? in.tax_ods : nullptr);
  }
  auto dim_ods = ods ? in.dim_ods : nullptr;
  if (name == "daily_sales") {
    return warehouse::DailySalesQuery(&in.fact, &in.dim, in.fact_index.get(),
                                      in.parts.get(), dim_ods, kStartYear + 1);
  }
  for (const auto& q : warehouse::TpcdsDateQueries(kStartYear, kYears)) {
    if (q.name == name) {
      return warehouse::ToLogicalQuery(q, &in.fact, &in.dim,
                                       in.fact_index.get(), in.parts.get(),
                                       dim_ods);
    }
  }
  ADD_FAILURE() << "unknown case " << name;
  return LogicalQuery();
}

/// FNV-1a over the answer's rows: in emitted order when the plan claims an
/// ordering, over the sorted row strings otherwise (an unordered answer
/// may come out in any order without changing the query's meaning).
std::string AnswerDigest(const Table& t, bool ordered) {
  std::vector<std::string> rows;
  rows.reserve(t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      row += t.col(c).Get(r).ToString();
      row += '\x01';
    }
    rows.push_back(std::move(row));
  }
  if (!ordered) std::sort(rows.begin(), rows.end());
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& row : rows) {
    for (unsigned char ch : row) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// One variant's rendering: the executed plan's EXPLAIN, the counters that
/// describe plan shape (not timing or scheduling), and the answer digest.
std::string Render(const std::string& name, bool ods, int dop,
                   common::ThreadPool* pool) {
  PlanOptions options;
  options.dop = dop;
  options.pool = dop > 1 ? pool : nullptr;
  CostModel cost;
  if (dop > 1) cost.fragment_startup = 0.0;
  PhysicalPlan plan = PlanQuery(MakeQuery(name, ods), cost, options);
  ExecStats s;
  Table out = plan.Execute(&s);
  std::ostringstream os;
  os << "== " << name << " ods=" << (ods ? "on" : "off") << " dop=" << dop
     << "\n"
     << plan.Explain() << "stats: rows_scanned=" << s.rows_scanned
     << " rows_joined=" << s.rows_joined << " rows_output=" << s.rows_output
     << " sorts=" << s.sorts << " sorts_elided=" << s.sorts_elided
     << " joins=" << s.joins << " joins_elided=" << s.joins_elided
     << " partitions_scanned=" << s.partitions_scanned
     << " fragments=" << s.fragments << "\n"
     << "answer: rows=" << out.num_rows() << " digest="
     << AnswerDigest(out, !plan.root().out_ordering.empty()) << "\n";
  return os.str();
}

class ExplainGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExplainGoldenTest, MatchesFixture) {
  const std::string& name = GetParam();
  common::ThreadPool pool(4);
  std::string actual;
  for (bool ods : {true, false}) {
    for (int dop : {1, 4}) actual += Render(name, ods, dop, &pool);
  }
  const std::string fixture = std::string(OD_GOLDEN_DIR) + "/" + name + ".exp";
  std::ifstream in(fixture, std::ios::binary);
  std::stringstream expected;
  expected << in.rdbuf();
  if (!in.is_open() || expected.str() != actual) {
    std::ofstream(name + ".out", std::ios::binary) << actual;
    ADD_FAILURE() << (in.is_open() ? "EXPLAIN differs from " : "missing ")
                  << fixture << "; actual output written to " << name
                  << ".out\n"
                  << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(Warehouse, ExplainGoldenTest,
                         ::testing::ValuesIn(CaseNames()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

}  // namespace
}  // namespace opt
}  // namespace od
