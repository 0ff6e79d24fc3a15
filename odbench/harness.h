// Shared pieces of the benchmark: run configuration, timing, percentiles,
// answer checks, metrics-registry deltas, the metric catalogue, and the
// analysis of the traced run's span export.

#ifndef ODBENCH_HARNESS_H_
#define ODBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/table.h"

namespace odbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double MiB(int64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// What every workload gets from the command line. All inputs are derived
/// from `seed` alone.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Metric values by catalogue name.
using Metrics = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics every untraced run reports, on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// The per-layer metrics every traced run reports, on every workload (a
/// layer a workload does not exercise reports 0).
const std::vector<MetricDef>& PerLayerMetrics();

/// The p-quantile (0 <= p <= 1) of `values` by linear interpolation
/// between the closest ranks (numpy's default). 0 for no samples.
double Percentile(std::vector<double> values, double p);
/// Samples a run needs so that at least ten lie beyond its p-quantile.
int64_t SamplesForTail(double p);
double Mean(const std::vector<double>& values);
/// exp(mean(log v)): the workloads' typical request latency. Unlike a
/// median it does not jump between the modes of a multimodal mix (memo
/// hits and misses, cheap and expensive query kinds).
double GeoMean(const std::vector<double>& values);
/// Mean of the slowest ceil(n * (1 - p)) values: the workloads' tail
/// latency. It averages at least ten samples once n >= SamplesForTail(p).
double TailMean(std::vector<double> values, double p);

/// Counts requests against failed requests. A request fails when any of
/// its checks fails; the first few problems go to stderr. A check that
/// cannot be made is a failure, never a skip. Thread-safe.
class Outcomes {
 public:
  /// One checked request; `problem` empty means every check passed.
  void Record(const std::string& problem);
  /// `n` requests that completed but whose answers are not checked (the
  /// churn workload checks a sample of its answers).
  void RecordUnchecked(int64_t n);
  int64_t attempted() const;
  int64_t failed() const;

 private:
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Empty when `got` answers the same query as `want`: same width and row
/// count, `got` ordered by `order_by`, and — rows compared in canonical
/// order (order_by keys, then every column) — integers and strings equal
/// and doubles within 1e-9 relative error. Otherwise a description of the
/// first difference.
std::string CompareTables(const od::engine::Table& got,
                          const od::engine::Table& want,
                          const std::vector<od::engine::ColumnId>& order_by);
/// `t` with its rows in the canonical order CompareTables uses.
od::engine::Table Canonical(const od::engine::Table& t,
                            const std::vector<od::engine::ColumnId>& order_by);

// -- Metrics-registry deltas -------------------------------------------------

/// Observations recorded between two snapshots of one histogram.
od::common::HistogramSnapshot HistogramDelta(
    const od::common::HistogramSnapshot& after,
    const od::common::HistogramSnapshot& before);
double HistogramMean(const od::common::HistogramSnapshot& h);

/// A before/after reader over the registry: construct at the start of a
/// window, then ask for deltas.
class RegistryWindow {
 public:
  RegistryWindow();
  int64_t Counter(const std::string& name, const std::string& labels = "")
      const;
  /// The delta summed over every labeled series of counter `name` (e.g.
  /// the discovery counters, one series per lattice level).
  int64_t CounterSum(const std::string& name) const;
  od::common::HistogramSnapshot Histogram(const std::string& name,
                                          const std::string& labels = "")
      const;

 private:
  od::common::MetricsSnapshot before_;
};

/// Fills the per-layer metrics that come straight from registry deltas
/// over `window`: the scheduler (common.*), prover memo and search
/// counters, theory change-feed counters, discovery counters, fragment
/// drain and row-estimate error. Rates are per request or per Apply.
void FillRegistryLayers(const RegistryWindow& window, double requests,
                        double applies, Metrics* out);

/// Polls `read` every `period` on its own thread while alive and keeps the
/// largest value seen. The scheduler's queue depth (a gauge, not a
/// watermark) and the resident set size are sampled this way.
class MaxSampler {
 public:
  MaxSampler(std::function<int64_t()> read, std::chrono::microseconds period);
  ~MaxSampler();
  MaxSampler(const MaxSampler&) = delete;
  MaxSampler& operator=(const MaxSampler&) = delete;

  /// Samples once more, then returns the maximum.
  int64_t max();

 private:
  void Sample();

  std::function<int64_t()> read_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_{0};
  std::thread thread_;
};

/// A reader of the registry gauge `name`, for MaxSampler.
std::function<int64_t()> GaugeReader(const std::string& name);
/// The process's resident set size in bytes, from /proc/self/statm.
int64_t ResidentBytes();

/// ratio = num / den, 0 when den is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// -- Phases, tracing, and the traced-run analysis ---------------------------

/// How a measured window is split. Untraced runs trace nothing; traced
/// runs alternate untraced and traced slices (U T U T), so the overhead
/// comparison sees the same state drift on both sides.
class Phases {
 public:
  explicit Phases(const RunConfig& cfg);
  /// Slice index for `busy_s` seconds into the window; switches the tracer
  /// on odd slices of a traced run.
  bool TracedAt(double busy_s);
  /// Turns the tracer off (end of window).
  void Stop();

 private:
  bool trace_;
  double slice_s_;
  bool tracing_ = false;
};

/// One request's trace scope: a fresh trace id plus the `bench.request`
/// root span every call span of the request parents under.
class RequestScope {
 public:
  RequestScope()
      : ctx_(od::common::TraceContext::NewRequest()), root_("bench.request") {}

 private:
  od::common::TraceContextScope ctx_;
  od::common::TraceSpan root_;
};

struct SpanEvent {
  std::string name;
  int64_t ts = 0;
  int64_t dur = 0;
  uint32_t tid = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
};

/// Parses Tracer::ExportChromeTrace output (one event per line).
std::vector<SpanEvent> ParseChromeTrace(const std::string& json);

/// The layer a span belongs to: the benchmark's own call spans are named
/// after the public call ("call.<layer>.<function>"); spans inside the
/// library by their prefix.
std::string LayerOf(const std::string& span_name);

/// Per-layer self time (a span's duration minus the part its children
/// cover), averaged over the complete requests in `events`. A request is
/// complete when its `bench.request` root starts at or after `cut_ts` (so
/// its children cannot have been overwritten in a ring that wrapped).
struct SelfTimes {
  std::map<std::string, double> us_per_request;
  int64_t requests = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<SpanEvent>& events,
                           int64_t cut_ts);

/// Empty when, in every complete request (see ComputeSelfTimes), each
/// service request span (`service.plan`, `service.execute`, ...) is a child
/// of the benchmark's span for the public call that made it, and at least
/// one such span was seen. A span parented elsewhere charges its time to
/// the wrong layer.
std::string CheckCallParents(const std::vector<SpanEvent>& events,
                             int64_t cut_ts);

/// Exports the tracer's buffer to `path`, analyses it, clears the tracer,
/// and writes `<layer>.self_us`, `bench.traced_requests` and
/// `common.trace_dropped_spans` into `out`. The span parenting is one more
/// check, recorded in `outcomes`.
void AnalyzeTrace(const std::string& path, Metrics* out, Outcomes* outcomes);

/// Geometric mean over request kinds of GeoMean(traced) / GeoMean(untraced),
/// as a percentage above 1.
double TraceOverheadPct(
    const std::map<std::string, std::vector<double>>& untraced,
    const std::map<std::string, std::vector<double>>& traced);

/// Where the traced run writes its span export (inside the checkout).
std::string TraceExportPath(const RunConfig& cfg);

/// Times `setup` `repeats` times and returns the median seconds; the last
/// setup's result stays in `*state`.
template <typename State, typename Fn>
double TimedSetup(int repeats, State* state, Fn&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < repeats; ++i) {
    state->reset();
    const auto t0 = Clock::now();
    *state = setup();
    secs.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  return Percentile(secs, 0.5);
}

// -- Workloads ---------------------------------------------------------------

/// Each runs one workload for cfg.seconds of measured time, fills the
/// metrics of its mode (end-to-end or per-layer), and counts outcomes.
void RunOlap(const RunConfig& cfg, bool with_ods, Metrics* out,
             Outcomes* outcomes);
void RunChurn(const RunConfig& cfg, Metrics* out, Outcomes* outcomes);
void RunOnboard(const RunConfig& cfg, Metrics* out, Outcomes* outcomes);

/// Self-tests of the harness; returns the number of failed checks.
int RunSelfTest();

}  // namespace odbench

#endif  // ODBENCH_HARNESS_H_
