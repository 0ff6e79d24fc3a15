// Experiment E1 (Example 1, the paper's motivating query):
//
//   SELECT d_year, d_quarter, d_moy, SUM(ss_net_paid)
//   FROM sales-joined-with-dates
//   GROUP BY d_year, d_quarter, d_moy
//   ORDER BY d_year, d_quarter, d_moy
//
// Physical design per the paper: the data is clustered on (d_year, d_moy)
// — a stream in that order is free. Without OD knowledge the optimizer
// cannot use it: quarter intervenes in both clauses and the FD
// month → quarter cannot remove it from the ORDER BY, so the plan sorts.
// With [d_moy] ↦ [d_quarter] (Theorem 8, Left Eliminate) both clauses
// reduce to [d_year, d_moy], the clustered order provides them, and no
// sort operator appears.
//
// Two ODs-on/off pairs on the streaming planner:
//   * the ORDER BY half on the detail stream;
//   * the GROUP BY half, with its ORDER BY.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "engine/ops.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

struct Workload {
  engine::Table clustered;  // physically ordered by (d_year, d_moy)
  engine::ColumnId year, quarter, moy, net;
  std::shared_ptr<theory::Theory> ods;  // [d_moy] ↦ [d_quarter], joined ids

  explicit Workload(int64_t fact_rows) {
    engine::Table dim = warehouse::GenerateDateDim(1998, 5);
    engine::Table fact = warehouse::GenerateStoreSales(
        fact_rows, dim.col(0).Int(0), dim.num_rows(), 100, 10, 17);
    const warehouse::DateDimColumns d;
    const warehouse::StoreSalesColumns f;
    opt::LogicalQuery join;
    join.name = "sales_with_dates";
    join.tables = {
        opt::TableRef{"store_sales", &fact, nullptr, nullptr, nullptr,
                      nullptr, -1},
        opt::TableRef{"date_dim", &dim, nullptr, nullptr, nullptr, nullptr,
                      -1}};
    join.joins = {opt::JoinClause{1, f.ss_sold_date_sk, d.d_date_sk}};
    opt::ExecStats stats;
    engine::Table joined = opt::PlanQuery(join).Execute(&stats);
    year = joined.Find("d_year");
    quarter = joined.Find("d_quarter");
    moy = joined.Find("d_moy");
    net = joined.Find("ss_net_paid");
    clustered = engine::SortBy(joined, {year, moy});
    DependencySet m;
    m.Add(AttributeList({moy}), AttributeList({quarter}));
    ods = std::make_shared<theory::Theory>(std::move(m));
  }

  opt::LogicalQuery Query(bool group_by) const {
    opt::LogicalQuery q;
    q.name = group_by ? "group_by_year_quarter_moy"
                      : "order_by_year_quarter_moy";
    q.tables.push_back(opt::TableRef{"sales", &clustered, nullptr, nullptr,
                                     ods, nullptr, -1});
    q.order_by = {year, quarter, moy};
    if (group_by) {
      q.group_cols = {year, quarter, moy};
      q.aggs = {{engine::AggSpec::Kind::kSum, net, "sum_net"}};
    }
    return q;
  }
};

Workload& GetWorkload(int64_t rows) {
  static std::map<int64_t, Workload*>* cache =
      new std::map<int64_t, Workload*>();
  auto it = cache->find(rows);
  if (it == cache->end()) it = cache->emplace(rows, new Workload(rows)).first;
  return *it->second;
}

void RunArm(benchmark::State& state, bool group_by, bool ods) {
  const Workload& w = GetWorkload(state.range(0));
  const opt::LogicalQuery q = w.Query(group_by);
  bench::RunOdArm(state, q, ods,
                  q.name + "/" + std::to_string(state.range(0)));
}

void BM_OrderByOdsOff(benchmark::State& state) { RunArm(state, false, false); }
void BM_OrderByOdsOn(benchmark::State& state) { RunArm(state, false, true); }
void BM_GroupByOdsOff(benchmark::State& state) { RunArm(state, true, false); }
void BM_GroupByOdsOn(benchmark::State& state) { RunArm(state, true, true); }

BENCHMARK(BM_OrderByOdsOff)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OrderByOdsOn)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupByOdsOff)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GroupByOdsOn)
    ->Arg(50000)
    ->Arg(200000)
    ->Arg(800000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::vector<std::string> sizes = {"/50000", "/200000", "/800000"};
  od::bench::PrintPairedSummary(
      reporter, "Example 1 ORDER BY: ODs off (sort) vs on (clustered order)",
      sizes, "BM_OrderByOdsOff", "BM_OrderByOdsOn");
  od::bench::PrintPairedSummary(
      reporter, "Example 1 GROUP BY + ORDER BY: ODs off vs on (stream agg)",
      sizes, "BM_GroupByOdsOff", "BM_GroupByOdsOn");
  benchmark::Shutdown();
  return reporter.errors() == 0 ? 0 : 1;
}
