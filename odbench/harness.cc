#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace odbench {

using od::common::HistogramSnapshot;
using od::common::MetricRegistry;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"request_gmean_ms", "ms"},
      {"request_tail95_ms", "ms"},
      {"requests_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"service.fastpath_hit_ratio", "ratio"},
      {"service.batches", "count/req"},
      {"service.batch_size_mean", "count"},
      {"service.refresh_us_p50", "us"},
      {"service.memo_seeded_per_apply", "count"},
      {"service.publish_us_p50", "us"},
      {"service.create_tenant_us_p50", "us"},
      {"service.apply_ms_p50", "ms"},
      {"service.apply_ms_p95", "ms"},
      {"service.implies_us_p99", "us"},
      {"service.epoch_memo_size", "count"},
      {"service.self_us", "us/req"},
      {"prover.searches", "count/req"},
      {"prover.memo_hits", "count/req"},
      {"prover.hit_ratio", "ratio"},
      {"prover.memo_invalidated", "count/apply"},
      {"prover.memo_retained", "count/apply"},
      {"prover.retain_ratio", "ratio"},
      {"prover.search_depth_mean", "count"},
      {"prover.searches_per_plan", "count"},
      {"prover.prove_all_ms_p50", "ms"},
      {"prover.self_us", "us/req"},
      {"theory.epoch_bumps_per_apply", "count"},
      {"theory.listener_notifications_per_apply", "count"},
      {"optimizer.plan_us_p50", "us"},
      {"optimizer.plan_us_p99", "us"},
      {"optimizer.plans_enumerated_per_query", "count"},
      {"optimizer.sorts_elided_per_query", "count"},
      {"optimizer.joins_elided_per_query", "count"},
      {"optimizer.rows_est_error_pct_p50", "%"},
      {"optimizer.self_us", "us/req"},
      {"exec.execute_ms_p50", "ms"},
      {"exec.execute_ms_p95", "ms"},
      {"exec.rows_scanned_per_query", "count"},
      {"exec.rows_joined_per_query", "count"},
      {"exec.sorts_per_query", "count"},
      {"exec.joins_per_query", "count"},
      {"exec.fragments_per_query", "count"},
      {"exec.exchange_peak_rows", "count"},
      {"exec.spills", "count/req"},
      {"exec.spilled_bytes", "B/req"},
      {"exec.fragment_drain_us_p50", "us"},
      {"exec.self_us", "us/req"},
      {"engine.rows_examined_per_row_out", "ratio"},
      {"engine.partitions_scanned_per_query", "count"},
      {"common.pool_submits", "count/req"},
      {"common.pool_steals", "count/req"},
      {"common.pool_task_us_p50", "us"},
      {"common.pool_queue_depth_max", "count"},
      {"common.trace_overhead_pct", "%"},
      {"common.trace_dropped_spans", "count"},
      {"common.self_us", "us/req"},
      {"discovery.discover_ms_p50", "ms"},
      {"discovery.candidates", "count/req"},
      {"discovery.validations", "count/req"},
      {"discovery.partitions_computed", "count/req"},
      {"discovery.partition_cache_hit_ratio", "ratio"},
      {"discovery.self_us", "us/req"},
      {"bench.writer_lag_ms_p95", "ms"},
      {"bench.traced_requests", "count"},
      {"bench.self_us", "us/req"},
  };
  return defs;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  p = std::min(1.0, std::max(0.0, p));
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

int64_t SamplesForTail(double p) {
  // 1e-9 absorbs the rounding of 1 - p (10 / 0.05 is 200.00000000000003).
  return static_cast<int64_t>(std::ceil(10.0 / (1.0 - p) - 1e-9));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double TailMean(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto k = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(
             static_cast<double>(values.size()) * (1.0 - p) - 1e-9)));
  std::nth_element(values.begin(), values.end() - k, values.end());
  return std::accumulate(values.end() - k, values.end(), 0.0) /
         static_cast<double>(k);
}

// -- Outcomes ----------------------------------------------------------------

void Outcomes::Record(const std::string& problem) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (problem.empty()) return;
  ++failed_;
  if (failed_ <= 10) std::cerr << "odbench: FAILED: " << problem << "\n";
}

void Outcomes::RecordUnchecked(int64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

int64_t Outcomes::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Outcomes::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

// -- Result comparison -------------------------------------------------------

namespace {

using od::engine::Column;
using od::engine::ColumnId;
using od::engine::DataType;
using od::engine::Table;

bool SameCell(const Column& a, int64_t ra, const Column& b, int64_t rb) {
  switch (a.type()) {
    case DataType::kInt64:
      return a.Int(ra) == b.Int(rb);
    case DataType::kString:
      return a.Str(ra) == b.Str(rb);
    case DataType::kDouble: {
      const double x = a.Double(ra);
      const double y = b.Double(rb);
      if (x == y) return true;
      return std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
    }
  }
  return false;
}

/// Row ids of `t` in canonical order (order_by keys, then every column).
std::vector<int64_t> CanonicalOrder(const Table& t,
                                    const std::vector<ColumnId>& order_by) {
  std::vector<ColumnId> key = order_by;
  for (ColumnId c = 0; c < t.num_columns(); ++c) key.push_back(c);
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.begin(), rows.end(), 0);
  auto less = [&](int64_t a, int64_t b) { return t.CompareRows(a, b, key) < 0; };
  // Engine outputs are often canonical already; skip the sort then.
  if (!std::is_sorted(rows.begin(), rows.end(), less)) {
    std::stable_sort(rows.begin(), rows.end(), less);
  }
  return rows;
}

}  // namespace

Table Canonical(const Table& t, const std::vector<ColumnId>& order_by) {
  return t.Gather(CanonicalOrder(t, order_by));
}

std::string CompareTables(const Table& got, const Table& want,
                          const std::vector<ColumnId>& order_by) {
  if (got.num_columns() != want.num_columns()) {
    return "width " + std::to_string(got.num_columns()) + " != " +
           std::to_string(want.num_columns());
  }
  if (got.num_rows() != want.num_rows()) {
    return "rows " + std::to_string(got.num_rows()) + " != " +
           std::to_string(want.num_rows());
  }
  for (ColumnId c = 0; c < got.num_columns(); ++c) {
    if (got.col(c).type() != want.col(c).type()) {
      return "column " + std::to_string(c) + " type differs";
    }
  }
  for (int64_t r = 1; r < got.num_rows(); ++r) {
    if (got.CompareRows(r - 1, r, order_by) > 0) {
      return "row " + std::to_string(r) + " breaks the ORDER BY";
    }
  }
  const std::vector<int64_t> g = CanonicalOrder(got, order_by);
  const std::vector<int64_t> w = CanonicalOrder(want, order_by);
  for (size_t i = 0; i < g.size(); ++i) {
    for (ColumnId c = 0; c < got.num_columns(); ++c) {
      if (!SameCell(got.col(c), g[i], want.col(c), w[i])) {
        return "row " + std::to_string(i) + " column " + std::to_string(c) +
               ": " + got.col(c).Get(g[i]).ToString() +
               " != " + want.col(c).Get(w[i]).ToString();
      }
    }
  }
  return "";
}

// -- Registry ----------------------------------------------------------------

HistogramSnapshot HistogramDelta(const HistogramSnapshot& after,
                                 const HistogramSnapshot& before) {
  // Both list the cumulative count at every bucket bound up to their
  // highest non-empty bucket, then +Inf; `before` at a bound past its
  // highest listed finite bound holds its last finite cumulative count.
  auto before_at = [&before](double le) {
    int64_t cum = 0;
    for (const auto& [b_le, b_cum] : before.buckets) {
      if (std::isinf(b_le)) return std::isinf(le) ? b_cum : cum;
      if (b_le > le) break;
      cum = b_cum;
    }
    return cum;
  };
  HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (const auto& [le, cum] : after.buckets) {
    d.buckets.emplace_back(le, cum - before_at(le));
  }
  return d;
}

double HistogramMean(const HistogramSnapshot& h) {
  return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

namespace {

std::string Key(const std::string& name, const std::string& labels) {
  return labels.empty() ? name : name + "{" + labels + "}";
}

}  // namespace

RegistryWindow::RegistryWindow()
    : before_(MetricRegistry::Global().Snapshot()) {}

int64_t RegistryWindow::Counter(const std::string& name,
                                const std::string& labels) const {
  const std::string key = Key(name, labels);
  auto it = before_.counters.find(key);
  const int64_t before = it == before_.counters.end() ? 0 : it->second;
  return MetricRegistry::Global().GetCounter(name, "", labels).Value() -
         before;
}

int64_t RegistryWindow::CounterSum(const std::string& name) const {
  auto sum = [&name](const od::common::MetricsSnapshot& snap) {
    int64_t total = 0;
    for (const auto& [key, value] : snap.counters) {
      if (key == name || key.rfind(name + "{", 0) == 0) total += value;
    }
    return total;
  };
  return sum(MetricRegistry::Global().Snapshot()) - sum(before_);
}

HistogramSnapshot RegistryWindow::Histogram(const std::string& name,
                                            const std::string& labels) const {
  const std::string key = Key(name, labels);
  auto it = before_.histograms.find(key);
  const HistogramSnapshot before =
      it == before_.histograms.end() ? HistogramSnapshot() : it->second;
  return HistogramDelta(
      MetricRegistry::Global().GetHistogram(name, "", labels).Snapshot(),
      before);
}

void FillRegistryLayers(const RegistryWindow& w, double requests,
                        double applies, Metrics* out) {
  Metrics& m = *out;
  auto count = [&w](const char* name) {
    return static_cast<double>(w.CounterSum(name));
  };
  m["common.pool_submits"] =
      Ratio(count("od_threadpool_submits_total"), requests);
  m["common.pool_steals"] = Ratio(count("od_threadpool_steals_total"), requests);
  m["common.pool_task_us_p50"] =
      w.Histogram("od_threadpool_task_us").ValueAtQuantile(0.5);

  const double searches = count("od_prover_searches_total");
  const double hits = count("od_prover_memo_hits_total");
  m["prover.searches"] = Ratio(searches, requests);
  m["prover.memo_hits"] = Ratio(hits, requests);
  m["prover.hit_ratio"] = Ratio(hits, hits + searches);
  m["prover.search_depth_mean"] =
      HistogramMean(w.Histogram("od_prover_search_depth"));
  const double invalidated = count("od_prover_memo_invalidated_total");
  const double retained = count("od_prover_memo_retained_total");
  m["prover.memo_invalidated"] = Ratio(invalidated, applies);
  m["prover.memo_retained"] = Ratio(retained, applies);
  m["prover.retain_ratio"] = Ratio(retained, retained + invalidated);

  m["theory.epoch_bumps_per_apply"] =
      Ratio(count("od_theory_epoch_bumps_total"), applies);
  m["theory.listener_notifications_per_apply"] =
      Ratio(count("od_theory_listener_notifications_total"), applies);

  m["discovery.candidates"] =
      Ratio(count("od_discovery_candidates_total"), requests);
  m["discovery.validations"] =
      Ratio(count("od_discovery_validations_total"), requests);
  const double computed = count("od_discovery_partitions_computed_total");
  const double cache_hits = count("od_discovery_partition_cache_hits_total");
  m["discovery.partitions_computed"] = Ratio(computed, requests);
  m["discovery.partition_cache_hit_ratio"] =
      Ratio(cache_hits, cache_hits + computed);

  m["exec.fragment_drain_us_p50"] =
      w.Histogram("od_exec_fragment_drain_us").ValueAtQuantile(0.5);
  m["optimizer.rows_est_error_pct_p50"] =
      w.Histogram("od_planner_rows_est_error_pct").ValueAtQuantile(0.5);
}

MaxSampler::MaxSampler(std::function<int64_t()> read,
                       std::chrono::microseconds period)
    : read_(std::move(read)) {
  Sample();
  thread_ = std::thread([this, period] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Sample();
      std::this_thread::sleep_for(period);
    }
  });
}

MaxSampler::~MaxSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void MaxSampler::Sample() {
  const int64_t v = read_();
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

int64_t MaxSampler::max() {
  Sample();
  return max_.load(std::memory_order_relaxed);
}

std::function<int64_t()> GaugeReader(const std::string& name) {
  od::common::Gauge& gauge = MetricRegistry::Global().GetGauge(name);
  return [&gauge] { return gauge.Value(); };
}

int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0;
  int64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

// -- Phases and tracing ------------------------------------------------------

Phases::Phases(const RunConfig& cfg)
    : trace_(cfg.trace), slice_s_(cfg.seconds / 4.0) {}

bool Phases::TracedAt(double busy_s) {
  const bool want =
      trace_ && static_cast<int64_t>(busy_s / slice_s_) % 2 == 1;
  if (want != tracing_) {
    if (want) {
      od::common::Tracer::Global().Enable();
    } else {
      od::common::Tracer::Global().Disable();
    }
    tracing_ = want;
  }
  return want;
}

void Phases::Stop() {
  od::common::Tracer::Global().Disable();
  tracing_ = false;
}

std::vector<SpanEvent> ParseChromeTrace(const std::string& json) {
  std::vector<SpanEvent> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string name_tag = "{\"name\":\"";
    const size_t start = line.find(name_tag);
    if (start == std::string::npos) continue;
    const size_t name_begin = start + name_tag.size();
    const size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    SpanEvent e;
    e.name = line.substr(name_begin, name_end - name_begin);
    unsigned tid = 0;
    const int n = std::sscanf(
        line.c_str() + name_end,
        "\",\"cat\":\"od\",\"ph\":\"X\",\"ts\":%" SCNd64 ",\"dur\":%" SCNd64
        ",\"pid\":1,\"tid\":%u,\"args\":{\"depth\":%*u,\"trace_id\":%" SCNu64
        ",\"span_id\":%" SCNu64 ",\"parent_id\":%" SCNu64,
        &e.ts, &e.dur, &tid, &e.trace_id, &e.span_id, &e.parent_id);
    if (n != 6) continue;
    e.tid = tid;
    events.push_back(std::move(e));
  }
  return events;
}

std::string LayerOf(const std::string& name) {
  auto starts = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("call.")) {
    const size_t dot = name.find('.', 5);
    return name.substr(5, dot == std::string::npos ? std::string::npos
                                                   : dot - 5);
  }
  if (starts("bench.")) return "bench";
  if (starts("service.")) return "service";
  if (starts("planner.")) return "optimizer";
  if (starts("plan.") || starts("exchange.") || starts("sort.")) {
    return "exec";
  }
  if (starts("prover.")) return "prover";
  if (starts("discovery.")) return "discovery";
  if (starts("thread_pool.")) return "common";
  return "other";
}

SelfTimes ComputeSelfTimes(const std::vector<SpanEvent>& events,
                           int64_t cut_ts) {
  SelfTimes out;
  std::unordered_map<uint64_t, bool> complete;  // trace id -> root kept
  for (const SpanEvent& e : events) {
    if (e.name == "bench.request" && e.parent_id == 0 && e.ts >= cut_ts) {
      complete[e.trace_id] = true;
    }
  }
  out.requests = static_cast<int64_t>(complete.size());
  std::unordered_map<uint64_t, std::vector<const SpanEvent*>> children;
  for (const SpanEvent& e : events) {
    if (e.parent_id != 0) children[e.parent_id].push_back(&e);
  }
  std::map<std::string, double> total_us;
  for (const SpanEvent& e : events) {
    if (complete.count(e.trace_id) == 0) continue;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> spans;
    auto it = children.find(e.span_id);
    if (it != children.end()) {
      for (const SpanEvent* c : it->second) {
        const int64_t lo = std::max(c->ts, e.ts);
        const int64_t hi = std::min(c->ts + c->dur, e.ts + e.dur);
        if (hi > lo) spans.emplace_back(lo, hi);
      }
    }
    std::sort(spans.begin(), spans.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : spans) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    total_us[LayerOf(e.name)] += static_cast<double>(e.dur - covered);
  }
  for (const auto& [layer, us] : total_us) {
    out.us_per_request[layer] =
        Ratio(us, static_cast<double>(out.requests));
  }
  return out;
}

std::string CheckCallParents(const std::vector<SpanEvent>& events,
                             int64_t cut_ts) {
  static const std::map<std::string, std::string> kCallOf = {
      {"service.plan", "call.optimizer.plan"},
      {"service.execute", "call.exec.execute"},
      {"service.implies", "call.service.implies"},
      {"service.prove_all", "call.prover.prove_all"},
      {"service.apply", "call.service.apply"},
  };
  std::unordered_map<uint64_t, bool> complete;
  std::unordered_map<uint64_t, const SpanEvent*> by_id;
  for (const SpanEvent& e : events) {
    if (e.name == "bench.request" && e.parent_id == 0 && e.ts >= cut_ts) {
      complete[e.trace_id] = true;
    }
    by_id[e.span_id] = &e;
  }
  int64_t checked = 0;
  for (const SpanEvent& e : events) {
    auto rule = kCallOf.find(e.name);
    if (rule == kCallOf.end() || complete.count(e.trace_id) == 0) continue;
    auto parent = by_id.find(e.parent_id);
    const std::string got =
        parent == by_id.end() ? "no recorded span" : parent->second->name;
    if (got != rule->second) {
      return "trace: " + e.name + " parents under " + got + ", not " +
             rule->second;
    }
    ++checked;
  }
  return checked == 0 ? "trace: no service request span in a complete request"
                      : "";
}

void AnalyzeTrace(const std::string& path, Metrics* out, Outcomes* outcomes) {
  od::common::Tracer& tracer = od::common::Tracer::Global();
  const std::string json = tracer.ExportChromeTrace();
  const int64_t dropped = tracer.dropped_events();
  tracer.Clear();
  {
    std::ofstream file(path);
    file << json;
  }
  const std::vector<SpanEvent> events = ParseChromeTrace(json);
  // When a ring wrapped, only requests that began after every lane's
  // oldest surviving span are whole.
  int64_t cut = 0;
  if (dropped > 0) {
    std::map<uint32_t, int64_t> oldest;
    for (const SpanEvent& e : events) {
      auto it = oldest.find(e.tid);
      if (it == oldest.end() || e.ts < it->second) oldest[e.tid] = e.ts;
    }
    for (const auto& [tid, ts] : oldest) cut = std::max(cut, ts);
  }
  outcomes->Record(CheckCallParents(events, cut));
  const SelfTimes self = ComputeSelfTimes(events, cut);
  for (const char* layer : {"service", "prover", "optimizer", "exec",
                            "common", "discovery", "bench"}) {
    auto it = self.us_per_request.find(layer);
    (*out)[std::string(layer) + ".self_us"] =
        it == self.us_per_request.end() ? 0 : it->second;
  }
  (*out)["bench.traced_requests"] = static_cast<double>(self.requests);
  (*out)["common.trace_dropped_spans"] = static_cast<double>(dropped);
}

double TraceOverheadPct(
    const std::map<std::string, std::vector<double>>& untraced,
    const std::map<std::string, std::vector<double>>& traced) {
  double log_sum = 0;
  int kinds = 0;
  for (const auto& [kind, u] : untraced) {
    auto it = traced.find(kind);
    if (it == traced.end() || u.empty() || it->second.empty()) continue;
    const double mu = GeoMean(u);
    const double mt = GeoMean(it->second);
    if (mu <= 0 || mt <= 0) continue;
    log_sum += std::log(mt / mu);
    ++kinds;
  }
  return kinds == 0 ? 0 : (std::exp(log_sum / kinds) - 1.0) * 100.0;
}

std::string TraceExportPath(const RunConfig& cfg) {
  return ".bench_build/trace-" + cfg.workload + "-" +
         std::to_string(cfg.seed) + ".json";
}

}  // namespace odbench
