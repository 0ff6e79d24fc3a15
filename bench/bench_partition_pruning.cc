// Experiment C-PART (Section 2.3): when the fact table is partitioned by
// the date surrogate key but queries predicate on natural dates, a plan
// without ODs must join against every partition; with the date-dimension
// ODs the planner derives the surrogate range and scans only the
// overlapping partitions. An ODs-on/off ablation on the streaming planner,
// sweeping partition counts (the fact has no index, so partitions are its
// only access path besides a full scan).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

constexpr int kStartYear = 1998;
constexpr int kYears = 5;

struct Workload {
  engine::Table dim;
  engine::Table fact;
  std::map<int, engine::PartitionedTable> partitioned;
  opt::DateRangeQuery query;
  std::shared_ptr<theory::Theory> dim_ods;

  Workload()
      : dim(warehouse::GenerateDateDim(kStartYear, kYears)),
        fact(warehouse::GenerateStoreSales(300000, dim.col(0).Int(0),
                                           dim.num_rows(), 100, 10, 3)),
        // query index 5: a (year, month) predicate — 1/60th of the days.
        query(warehouse::TpcdsDateQueries(kStartYear, kYears)[5]),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())) {
    for (int parts : {4, 16, 64}) {
      partitioned.emplace(parts, engine::PartitionedTable::PartitionByRange(
                                     fact, 0, parts));
    }
  }
};

Workload& GetWorkload() {
  static Workload* w = new Workload();
  return *w;
}

void RunArm(benchmark::State& state, bool ods) {
  Workload& w = GetWorkload();
  const int parts = static_cast<int>(state.range(0));
  const opt::LogicalQuery q = warehouse::ToLogicalQuery(
      w.query, &w.fact, &w.dim, /*fact_sk_index=*/nullptr,
      &w.partitioned.at(parts), w.dim_ods);
  bench::RunOdArm(state, q, ods, q.name + "/" + std::to_string(parts));
}

void BM_PartitionsOdsOff(benchmark::State& state) { RunArm(state, false); }
void BM_PartitionsOdsOn(benchmark::State& state) { RunArm(state, true); }

BENCHMARK(BM_PartitionsOdsOff)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartitionsOdsOn)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  od::bench::PrintPairedSummary(
      reporter,
      "Date-partitioned fact: ODs off (join, all partitions) vs on (pruned)",
      {"/4", "/16", "/64"}, "BM_PartitionsOdsOff", "BM_PartitionsOdsOn");
  benchmark::Shutdown();
  return reporter.errors() == 0 ? 0 : 1;
}
