// Self-tests of the benchmark's own code: percentiles, failure counting,
// answer comparison (a deliberately wrong reference must count as a
// failure), registry deltas, and the traced run's span analysis. run.py
// runs them before every workload run.

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/index.h"
#include "harness.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/queries.h"
#include "warehouse/tax_schedule.h"

namespace odbench {
namespace {

using namespace od;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "self-test: FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  const std::vector<double> five = {5, 1, 4, 2, 3};
  Expect(Near(Percentile(five, 0.5), 3), "p50 of 1..5 is 3");
  Expect(Near(Percentile(five, 0.0), 1), "p0 is the minimum");
  Expect(Near(Percentile(five, 1.0), 5), "p100 is the maximum");
  Expect(Near(Percentile(five, 0.25), 2), "p25 of 1..5 is 2");
  Expect(Near(Percentile(five, 0.95), 4.8), "p95 of 1..5 interpolates to 4.8");
  Expect(Near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "p50 of 1..4 is 2.5");
  Expect(Near(Percentile({7}, 0.99), 7), "one sample is every percentile");
  Expect(Percentile({}, 0.5) == 0, "no samples give 0");
  Expect(SamplesForTail(0.95) == 200, "p95 needs 200 samples");
  Expect(SamplesForTail(0.99) == 1000, "p99 needs 1000 samples");
  Expect(SamplesForTail(0.5) == 20, "p50 needs 20 samples");
  Expect(Near(Mean({1, 2, 3, 6}), 3), "mean");
  Expect(Near(GeoMean({1, 100}), 10), "geometric mean of 1 and 100 is 10");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(TailMean(hundred, 0.95), 98), "tail mean of 1..100 is 98");
  hundred.resize(200);
  for (int i = 101; i <= 200; ++i) hundred[static_cast<size_t>(i - 1)] = i;
  Expect(Near(TailMean(hundred, 0.95), 195.5),
         "tail mean of 1..200 averages the top ten");
  Expect(Near(TailMean({4}, 0.95), 4), "tail mean of one sample");
}

void TestOutcomes() {
  Outcomes o;
  o.Record("");
  o.Record("");
  o.Record("wrong answer");
  o.Record("");
  Expect(o.attempted() == 4, "every request counts as attempted");
  Expect(o.failed() == 1, "a failed check counts once");
}

engine::Table Pairs(const std::vector<std::pair<int64_t, double>>& rows) {
  engine::Schema s;
  s.Add("k", engine::DataType::kInt64);
  s.Add("v", engine::DataType::kDouble);
  engine::Table t(s);
  for (const auto& [k, v] : rows) t.AppendRow({Value(k), Value(v)});
  return t;
}

void TestCompareTables() {
  const engine::Table want = Pairs({{1, 10.0}, {2, 20.0}, {3, 30.0}});
  Expect(CompareTables(Pairs({{3, 30.0}, {1, 10.0}, {2, 20.0}}), want, {})
             .empty(),
         "unordered results compare as multisets");
  Expect(CompareTables(Pairs({{1, 10.0}, {2, 20.0 * (1 + 1e-12)}, {3, 30.0}}),
                       want, {0})
             .empty(),
         "doubles within 1e-9 relative match");
  Expect(!CompareTables(Pairs({{1, 10.0}, {2, 20.0 * (1 + 1e-6)}, {3, 30.0}}),
                        want, {0})
              .empty(),
         "doubles 1e-6 apart differ");
  Expect(!CompareTables(Pairs({{1, 10.0}, {4, 20.0}, {3, 30.0}}), want, {})
              .empty(),
         "a wrong integer differs");
  Expect(!CompareTables(Pairs({{1, 10.0}, {2, 20.0}}), want, {}).empty(),
         "a missing row differs");
  Expect(!CompareTables(Pairs({{2, 20.0}, {1, 10.0}, {3, 30.0}}), want, {0})
              .empty(),
         "a result out of ORDER BY order differs");
}

/// The workloads' check path end to end: a real plan's answer against a
/// reference that was deliberately corrupted must be recorded as failed.
void TestWrongReferenceIsAFailure() {
  engine::Table taxes = warehouse::GenerateTaxTable(2000, 250000, 7);
  engine::OrderedIndex income(&taxes, {warehouse::TaxColumns().income});
  opt::LogicalQuery q = warehouse::TaxOrderByQuery(
      &taxes, &income,
      std::make_shared<theory::Theory>(warehouse::TaxOds()));
  opt::ExecStats stats;
  const engine::Table got = opt::PlanQuery(q).Execute(&stats);
  q.tables[0].ods = nullptr;
  engine::Table reference = opt::PlanQuery(q).Execute(&stats);

  Outcomes outcomes;
  outcomes.Record(CompareTables(got, reference, q.order_by));
  Expect(outcomes.failed() == 0, "the ODs-on answer matches the reference");

  engine::Table wrong = reference.Gather({});  // same schema, no rows
  for (int64_t r = 0; r < reference.num_rows(); ++r) {
    std::vector<Value> row;
    for (int c = 0; c < reference.num_columns(); ++c) {
      row.push_back(reference.col(c).Get(r));
    }
    if (r == 1000) row[3] = Value(row[3].AsDouble() + 0.5);  // tax
    wrong.AppendRow(row);
  }
  outcomes.Record(CompareTables(got, wrong, q.order_by));
  Expect(outcomes.attempted() == 2 && outcomes.failed() == 1,
         "a wrong reference is counted as a failure, not skipped");
}

void TestHistogramDelta() {
  common::Histogram& h = common::MetricRegistry::Global().GetHistogram(
      "odbench_selftest_us");
  for (int i = 0; i < 10; ++i) h.Record(1000);
  const RegistryWindow window;
  const common::HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 5; ++i) h.Record(3);
  for (int i = 0; i < 5; ++i) h.Record(100000);
  const common::HistogramSnapshot d = HistogramDelta(h.Snapshot(), before);
  Expect(d.count == 10, "delta counts only the new observations");
  Expect(d.sum == 5 * 3 + 5 * 100000, "delta sum");
  Expect(d.ValueAtQuantile(0.25) <= 4, "delta p25 sits in the small bucket");
  Expect(d.ValueAtQuantile(0.75) > 60000, "delta p75 sits in the large one");
  Expect(window.Histogram("odbench_selftest_us").count == 10,
         "RegistryWindow gives the same delta");
  common::Counter& c =
      common::MetricRegistry::Global().GetCounter("odbench_selftest_total");
  c.Add(3);
  const RegistryWindow counters;
  c.Add(4);
  Expect(counters.Counter("odbench_selftest_total") == 4, "counter delta");
  common::Counter& level1 = common::MetricRegistry::Global().GetCounter(
      "odbench_selftest_levels_total", "", "level=\"1\"");
  common::Counter& level2 = common::MetricRegistry::Global().GetCounter(
      "odbench_selftest_levels_total", "", "level=\"2\"");
  level1.Add(5);
  const RegistryWindow levels;
  level1.Add(2);
  level2.Add(3);
  Expect(levels.CounterSum("odbench_selftest_levels_total") == 5,
         "CounterSum adds the deltas of every labeled series");
}

SpanEvent Span(const char* name, int64_t ts, int64_t dur, uint64_t id,
               uint64_t parent, uint32_t tid = 1) {
  SpanEvent e;
  e.name = name;
  e.ts = ts;
  e.dur = dur;
  e.tid = tid;
  e.trace_id = 7;
  e.span_id = id;
  e.parent_id = parent;
  return e;
}

void TestSelfTimes() {
  // request [0,100): plan [10,60) with a prover search [20,30); execute
  // [60,90) with two overlapping pool tasks on other lanes [65,80), [70,85).
  std::vector<SpanEvent> events = {
      Span("prover.search", 20, 10, 3, 2),
      Span("call.optimizer.plan", 10, 50, 2, 1),
      Span("thread_pool.task", 65, 15, 5, 4, 2),
      Span("thread_pool.task", 70, 15, 6, 4, 3),
      Span("call.exec.execute", 60, 30, 4, 1),
      Span("bench.request", 0, 100, 1, 0),
  };
  SelfTimes s = ComputeSelfTimes(events, 0);
  Expect(s.requests == 1, "one complete request");
  Expect(Near(s.us_per_request["bench"], 20), "harness self time");
  Expect(Near(s.us_per_request["optimizer"], 40), "optimizer self time");
  Expect(Near(s.us_per_request["prover"], 10), "prover self time");
  Expect(Near(s.us_per_request["exec"], 10),
         "exec self time subtracts the union of parallel children");
  Expect(Near(s.us_per_request["common"], 30), "pool task self time");
  s = ComputeSelfTimes(events, 1);
  Expect(s.requests == 0 && s.us_per_request.empty(),
         "requests before the cut are dropped whole");

  Expect(CheckCallParents(events, 0) ==
             "trace: no service request span in a complete request",
         "a trace with nothing to check fails");
  events.push_back(Span("service.execute", 61, 28, 8, 4));
  Expect(CheckCallParents(events, 0).empty(),
         "service.execute under call.exec.execute passes");
  events.push_back(Span("service.plan", 11, 48, 9, 2));
  events[events.size() - 2].parent_id = 9;
  Expect(!CheckCallParents(events, 0).empty(),
         "service.execute under service.plan is a failure");

  Expect(LayerOf("call.service.implies") == "service", "call span layer");
  Expect(LayerOf("planner.plan") == "optimizer", "planner layer");
  Expect(LayerOf("exchange.fragment") == "exec", "exchange layer");
  Expect(LayerOf("service.prove_batch") == "service", "service layer");
  Expect(LayerOf("thread_pool.chunk") == "common", "pool layer");
}

void TestTraceRoundTrip() {
  common::Tracer& tracer = common::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  {
    RequestScope request;
    OD_TRACE_SPAN("call.prover.prove_all");
  }
  tracer.Disable();
  const std::vector<SpanEvent> events =
      ParseChromeTrace(tracer.ExportChromeTrace());
  tracer.Clear();
#if OD_TRACE_ENABLED
  Expect(events.size() == 2, "two spans exported and parsed");
  if (events.size() == 2) {
    const SpanEvent& child = events[0];
    const SpanEvent& root = events[1];
    Expect(root.name == "bench.request" && root.parent_id == 0,
           "request root parsed");
    Expect(child.name == "call.prover.prove_all" &&
               child.parent_id == root.span_id &&
               child.trace_id == root.trace_id && root.trace_id != 0,
           "call span parents under its request and shares its trace id");
  }
#else
  Expect(false, "the benchmark needs the span tracer compiled in");
#endif
}

}  // namespace

int RunSelfTest() {
  failures = 0;
  TestPercentile();
  TestOutcomes();
  TestCompareTables();
  TestWrongReferenceIsAFailure();
  TestHistogramDelta();
  TestSelfTimes();
  TestTraceRoundTrip();
  return failures;
}

}  // namespace odbench
