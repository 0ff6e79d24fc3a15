// Experiment C-SORT (Section 2.3 / [17]): sort elimination for
// order-equivalent streams, as an ODs-on/off ablation on the streaming
// planner. Both queries read a stream ordered by the natural date d_date
// while the work needs the surrogate key d_date_sk; the prescribed OD
// [d_date_sk] ↔ [d_date] proves the two orders equivalent.
//   * Merge join store_sales ⋈ date_dim, the dimension declared ordered by
//     d_date: with the OD its stream provides the join-key order, so the
//     merge needs no dimension sort. The dimension has 1826 rows, so the
//     elided sort is worth little next to the join; this pair mostly shows
//     the proof holding at scale.
//   * DISTINCT d_date_sk over sales clustered by d_date: with the OD the
//     groups are provably contiguous, so DISTINCT streams instead of
//     hashing.

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
  engine::Table dim_by_date;     // date_dim, ordering property [d_date]
  engine::Table fact_sorted;     // store_sales, ordering property [sk]
  engine::Table sales_by_date;   // fact ⋈ dim, ordering property [d_date]
  engine::ColumnId sales_sk = -1;
  std::shared_ptr<theory::Theory> dim_ods, sales_ods;

  explicit Workload(int64_t rows) {
    const warehouse::DateDimColumns d;
    engine::Table dim = warehouse::GenerateDateDim(1998, 5);
    dim_by_date = engine::SortBy(dim, {d.d_date});
    fact_sorted = engine::SortBy(
        warehouse::GenerateStoreSales(rows, dim.col(0).Int(0), dim.num_rows(),
                                      100, 10, 29),
        {0});
    dim_ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());

    opt::LogicalQuery join = MergeJoinQuery();
    opt::ExecStats stats;
    engine::Table joined = opt::PlanQuery(join).Execute(&stats);
    const engine::ColumnId date = joined.Find("d_date");
    sales_sk = joined.Find("d_date_sk");
    sales_by_date = engine::SortBy(joined, {date});
    // [d_date_sk] ↔ [d_date], restated over the joined schema's ids.
    DependencySet m;
    m.Add(AttributeList({sales_sk}), AttributeList({date}));
    m.Add(AttributeList({date}), AttributeList({sales_sk}));
    sales_ods = std::make_shared<theory::Theory>(std::move(m));
  }

  opt::LogicalQuery MergeJoinQuery() const {
    const warehouse::StoreSalesColumns f;
    const warehouse::DateDimColumns d;
    opt::LogicalQuery q;
    q.name = "sales_join_dates";
    q.tables = {opt::TableRef{"store_sales", &fact_sorted, nullptr, nullptr,
                              nullptr, nullptr, -1},
                opt::TableRef{"date_dim", &dim_by_date, nullptr, nullptr,
                              dim_ods, nullptr, -1}};
    q.joins = {opt::JoinClause{1, f.ss_sold_date_sk, d.d_date_sk}};
    return q;
  }

  opt::LogicalQuery DistinctQuery() const {
    opt::LogicalQuery q;
    q.name = "distinct_date_sk";
    q.tables = {opt::TableRef{"sales", &sales_by_date, nullptr, nullptr,
                              sales_ods, nullptr, -1}};
    q.group_cols = {sales_sk};
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

void RunArm(benchmark::State& state, bool distinct, bool ods) {
  const Workload& w = GetWorkload(state.range(0));
  const opt::LogicalQuery q = distinct ? w.DistinctQuery() : w.MergeJoinQuery();
  bench::RunOdArm(state, q, ods,
                  q.name + "/" + std::to_string(state.range(0)));
}

void BM_MergeJoinOdsOff(benchmark::State& state) {
  RunArm(state, false, false);
}
void BM_MergeJoinOdsOn(benchmark::State& state) { RunArm(state, false, true); }
void BM_DistinctOdsOff(benchmark::State& state) { RunArm(state, true, false); }
void BM_DistinctOdsOn(benchmark::State& state) { RunArm(state, true, true); }

BENCHMARK(BM_MergeJoinOdsOff)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MergeJoinOdsOn)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DistinctOdsOff)->Arg(400000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DistinctOdsOn)->Arg(400000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  od::bench::PrintPairedSummary(
      reporter, "Join on a d_date-ordered dimension: ODs off vs on",
      {"/100000", "/400000"}, "BM_MergeJoinOdsOff", "BM_MergeJoinOdsOn");
  od::bench::PrintPairedSummary(
      reporter, "DISTINCT d_date_sk over a d_date-ordered stream: ODs off vs on",
      {"/400000"}, "BM_DistinctOdsOff", "BM_DistinctOdsOn");
  benchmark::Shutdown();
  return reporter.errors() == 0 ? 0 : 1;
}
