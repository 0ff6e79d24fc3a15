// Experiment C-TPCDS (Section 2.3 / [18]): the surrogate-key date rewrite
// over the thirteen TPC-DS-style query templates. The paper reports that
// all thirteen matching TPC-DS queries benefited from the rewrite in the
// DB2 prototype, with an average gain of 48%; this harness regenerates the
// same comparison as an ablation on one engine — each template planned by
// the streaming planner without ODs (fact ⋈ date_dim) and with the
// date-dimension ODs (the join proven away, a fact-index range scan) — and
// prints the per-query and average gains.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "engine/index.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

constexpr int kStartYear = 1998;
constexpr int kYears = 5;
constexpr int64_t kFactRows = 400000;

struct Workload {
  engine::Table dim;
  engine::Table fact;
  engine::OrderedIndex fact_index;
  std::shared_ptr<theory::Theory> dim_ods;
  std::vector<opt::LogicalQuery> queries;

  Workload()
      : dim(warehouse::GenerateDateDim(kStartYear, kYears)),
        fact(warehouse::GenerateStoreSales(kFactRows, dim.col(0).Int(0),
                                           dim.num_rows(), /*num_items=*/200,
                                           /*num_stores=*/20, /*seed=*/1)),
        fact_index(&fact, {0}),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())) {
    for (const auto& q : warehouse::TpcdsDateQueries(kStartYear, kYears)) {
      queries.push_back(warehouse::ToLogicalQuery(
          q, &fact, &dim, &fact_index, /*fact_parts=*/nullptr, dim_ods));
    }
  }
};

Workload& GetWorkload() {
  static Workload* w = new Workload();
  return *w;
}

void RunArm(benchmark::State& state, bool ods) {
  const opt::LogicalQuery& q = GetWorkload().queries[state.range(0)];
  bench::RunOdArm(state, q, ods, q.name);
  state.SetLabel(q.name);
}

void BM_OdsOff(benchmark::State& state) { RunArm(state, false); }
void BM_OdsOn(benchmark::State& state) { RunArm(state, true); }

BENCHMARK(BM_OdsOff)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OdsOn)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // Summarize per paper: per-query ODs off vs on and average gain.
  std::vector<std::string> labels;
  for (int i = 0; i < 13; ++i) labels.push_back("/" + std::to_string(i));
  od::bench::PrintPairedSummary(
      reporter,
      "TPC-DS date-predicate queries: ODs off (join) vs on (surrogate-key "
      "rewrite) (paper: 13/13 improved, avg 48%)",
      labels, "BM_OdsOff", "BM_OdsOn");
  benchmark::Shutdown();
  return reporter.errors() == 0 ? 0 : 1;
}
