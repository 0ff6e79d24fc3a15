#ifndef OD_BENCH_BENCH_UTIL_H_
#define OD_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "engine/ops.h"
#include "optimizer/planner.h"

namespace od {
namespace bench {

/// A console reporter that additionally records per-benchmark real times so
/// a binary can print a paper-style baseline-vs-rewritten summary table
/// after the standard google-benchmark output.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (run.error_occurred) {
        ++errors_;
        continue;
      }
      seconds_[run.benchmark_name()] =
          run.real_accumulated_time / static_cast<double>(run.iterations);
    }
    ConsoleReporter::ReportRuns(reports);
  }

  bool Has(const std::string& name) const { return seconds_.count(name) > 0; }
  /// Runs that ended in SkipWithError — a bench whose answers disagree
  /// exits non-zero on this, so a smoke run fails loudly.
  int errors() const { return errors_; }
  double Seconds(const std::string& name) const {
    auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_;
  int errors_ = 0;
};

/// Prints rows of (label, baseline, variant) with per-row and average gain,
/// mirroring how the paper reports its prototype results ("every one of
/// these thirteen benefited, with an average performance gain of 48%").
inline void PrintPairedSummary(const CapturingReporter& reporter,
                               const std::string& title,
                               const std::vector<std::string>& labels,
                               const std::string& baseline_prefix,
                               const std::string& variant_prefix) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s %14s %14s %9s\n", "query", "baseline(ms)",
              "rewritten(ms)", "gain");
  double total_gain = 0;
  int counted = 0;
  int improved = 0;
  for (const auto& label : labels) {
    const std::string base_name = baseline_prefix + label;
    const std::string var_name = variant_prefix + label;
    if (!reporter.Has(base_name) || !reporter.Has(var_name)) continue;
    const double base_ms = reporter.Seconds(base_name) * 1e3;
    const double var_ms = reporter.Seconds(var_name) * 1e3;
    const double gain = base_ms > 0 ? (1.0 - var_ms / base_ms) * 100.0 : 0.0;
    total_gain += gain;
    ++counted;
    if (var_ms < base_ms) ++improved;
    std::printf("%-28s %14.3f %14.3f %8.1f%%\n", label.c_str(), base_ms,
                var_ms, gain);
  }
  if (counted > 0) {
    std::printf("%-28s %14s %14s %8.1f%%\n", "AVERAGE", "", "",
                total_gain / counted);
    std::printf("queries improved: %d of %d\n", improved, counted);
  }
}

/// The paper's ablation on one engine (Section 2.3): the same logical
/// query with every table's catalog dropped, so the planner can prove
/// only trivially true order facts.
inline opt::LogicalQuery WithoutOds(opt::LogicalQuery q) {
  for (opt::TableRef& t : q.tables) {
    t.ods = nullptr;
    t.prover = nullptr;
  }
  return q;
}

/// One arm of an ODs-on/off pair: plans `q` (with its ODs when `ods`,
/// WithoutOds otherwise) and times Execute of that plan. Before timing,
/// the arm checks that the ODs-on and ODs-off plans return the same row
/// multiset — once per `check_key` — and reports SkipWithError otherwise:
/// an elision that changes the answer is a bug, not a speedup. Counters:
/// the executed plan's sorts, joins, rows scanned and partitions scanned.
inline void RunOdArm(benchmark::State& state, const opt::LogicalQuery& q,
                     bool ods, const std::string& check_key) {
  static auto* verdicts = new std::map<std::string, bool>();
  auto it = verdicts->find(check_key);
  if (it == verdicts->end()) {
    opt::ExecStats on_stats, off_stats;
    const engine::Table on = opt::PlanQuery(q).Execute(&on_stats);
    const engine::Table off = opt::PlanQuery(WithoutOds(q)).Execute(&off_stats);
    it = verdicts->emplace(check_key, engine::SameRowMultiset(on, off)).first;
  }
  if (!it->second) {
    state.SkipWithError("ODs-on and ODs-off plans return different answers");
    return;
  }
  const opt::PhysicalPlan plan = opt::PlanQuery(ods ? q : WithoutOds(q));
  opt::ExecStats stats;
  for (auto _ : state) {
    stats = opt::ExecStats();
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.counters["sorts"] = stats.sorts;
  state.counters["joins"] = stats.joins;
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["partitions_scanned"] = stats.partitions_scanned;
}

}  // namespace bench
}  // namespace od

#endif  // OD_BENCH_BENCH_UTIL_H_
