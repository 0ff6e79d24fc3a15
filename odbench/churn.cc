// Workload implies_churn: the service read path with a writer beside the
// readers. Three closed-loop reader sessions ask Zipf-distributed Implies
// questions and re-pin every 256 calls; one open-loop writer applies an
// add-one/remove-previous sweep every 20 ms. Answers are sampled (every
// 64th) with their pinned epoch and replayed afterwards against a fresh
// prover over that epoch's published catalog.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "prover/prover.h"
#include "service/service.h"
#include "theory/theory.h"

namespace odbench {
namespace {

using namespace od;

constexpr int kAttrs = 16;
constexpr int kQueryPool = 200000;
constexpr double kZipfS = 1.0;
constexpr int kCatalogSize = 16;
/// The catalog is drawn from this fixed seed, not the run's: random
/// catalogs differ by up to 10x in prover cost (the search is sensitive to
/// which attributes the catalog constrains), which would swamp any change
/// under test. The query pool, the Zipf draws and the writer's mutations
/// come from the run's seed.
constexpr uint64_t kCatalogShapeSeed = 20120801;
constexpr int kReaders = 3;
constexpr int kPoolWorkers = 4;
constexpr int kRefreshEvery = 256;
constexpr int kLogEvery = 64;
constexpr auto kWriterPeriod = std::chrono::milliseconds(20);
/// Pre-drawn query indexes per reader (a ring; a reader that outruns it
/// starts over).
constexpr size_t kDrawsPerReader = size_t{1} << 20;
/// Warm-up Implies calls per reader before the window, no writer.
constexpr int kWarmupCalls = 2000;
constexpr int kSetupRepeats = 3;
const char* const kTenant = "churn";

AttributeList RandomSide(std::mt19937_64& rng, int min_len, int max_len) {
  std::uniform_int_distribution<int> len(min_len, max_len);
  std::uniform_int_distribution<int> attr(0, kAttrs - 1);
  std::vector<AttributeId> attrs;
  const int n = len(rng);
  while (static_cast<int>(attrs.size()) < n) {
    const int a = attr(rng);
    if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
      attrs.push_back(a);
    }
  }
  return AttributeList(std::move(attrs));
}

OrderDependency RandomOd(std::mt19937_64& rng, int max_side) {
  AttributeList lhs = RandomSide(rng, 1, max_side);
  AttributeList rhs = RandomSide(rng, 1, max_side);
  return OrderDependency(std::move(lhs), std::move(rhs));
}

/// A logged answer: which query, what the session said, at which epoch.
struct Logged {
  int query = 0;
  bool answer = false;
  uint64_t epoch = 0;
};

struct State {
  std::vector<OrderDependency> queries;        // the distinct pool
  std::vector<std::vector<int32_t>> draws;     // per reader, Zipf ranks
  std::mt19937_64 writer_rng;
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<service::Server> server;
};

std::unique_ptr<State> Setup(uint64_t seed) {
  auto st = std::make_unique<State>();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::unordered_set<OrderDependency, OrderDependencyHash> seen;
  st->queries.reserve(kQueryPool);
  while (static_cast<int>(st->queries.size()) < kQueryPool) {
    OrderDependency od = RandomOd(rng, 3);
    if (seen.insert(od).second) st->queries.push_back(std::move(od));
  }
  // Zipf(s) over ranks 0..n-1; rank r is query r (the pool is already in
  // random order).
  std::vector<double> cdf(kQueryPool);
  double total = 0;
  for (int r = 0; r < kQueryPool; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfS);
    cdf[static_cast<size_t>(r)] = total;
  }
  for (int t = 0; t < kReaders; ++t) {
    std::mt19937_64 reader_rng(rng());
    std::uniform_real_distribution<double> u(0.0, total);
    std::vector<int32_t> d(kDrawsPerReader);
    for (int32_t& q : d) {
      q = static_cast<int32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u(reader_rng)) -
          cdf.begin());
      if (q >= kQueryPool) q = kQueryPool - 1;
    }
    st->draws.push_back(std::move(d));
  }
  std::mt19937_64 shape_rng(kCatalogShapeSeed);
  DependencySet catalog;
  for (int i = 0; i < kCatalogSize; ++i) catalog.Add(RandomOd(shape_rng, 2));
  st->writer_rng.seed(rng());
  st->pool = std::make_unique<common::ThreadPool>(kPoolWorkers);
  service::ServerOptions so;
  so.pool = st->pool.get();
  st->server = std::make_unique<service::Server>(so);
  st->server->CreateTenant(kTenant, catalog);
  // Warm-up: every reader asks its first kWarmupCalls questions.
  std::vector<std::thread> warm;
  for (int t = 0; t < kReaders; ++t) {
    warm.emplace_back([&st, t] {
      service::Session s = st->server->OpenSession(kTenant);
      for (int i = 0; i < kWarmupCalls; ++i) {
        (void)s.Implies(st->queries[static_cast<size_t>(
            st->draws[static_cast<size_t>(t)][static_cast<size_t>(i)])]);
      }
    });
  }
  for (std::thread& w : warm) w.join();
  return st;
}

/// One reader's results.
struct ReaderLog {
  std::vector<double> implies_us;
  std::vector<bool> traced;  ///< per Implies sample: tracer was on
  std::vector<double> refresh_us;
  std::vector<Logged> logged;
  int64_t calls = 0;
};

void Reader(const State& st, int t, const std::atomic<bool>& stop,
            ReaderLog* log) {
  service::Session session = st.server->OpenSession(kTenant);
  const std::vector<int32_t>& draws = st.draws[static_cast<size_t>(t)];
  // Continue where warm-up stopped.
  size_t pos = kWarmupCalls;
  log->implies_us.reserve(1 << 20);
  log->traced.reserve(1 << 20);
  const common::Tracer& tracer = common::Tracer::Global();
  while (!stop.load(std::memory_order_relaxed)) {
    if (log->calls % kRefreshEvery == kRefreshEvery - 1) {
      RequestScope request;
      OD_TRACE_SPAN("call.service.refresh");
      const auto t0 = Clock::now();
      session.Refresh();
      log->refresh_us.push_back(MsBetween(t0, Clock::now()) * 1000.0);
    }
    const int q = draws[pos];
    pos = (pos + 1) % draws.size();
    const bool traced = tracer.enabled();
    bool answer;
    double us;
    {
      RequestScope request;
      OD_TRACE_SPAN("call.service.implies");
      const auto t0 = Clock::now();
      answer = session.Implies(st.queries[static_cast<size_t>(q)]);
      us = MsBetween(t0, Clock::now()) * 1000.0;
    }
    log->implies_us.push_back(us);
    log->traced.push_back(traced);
    if (log->calls % kLogEvery == 0) {
      log->logged.push_back(Logged{q, answer, session.epoch()});
    }
    ++log->calls;
  }
}

struct WriterLog {
  std::vector<double> apply_ms;  ///< from when the sweep was due
  std::vector<double> lag_ms;    ///< how late it started
  std::vector<double> memo_seeded;
  std::map<uint64_t, std::shared_ptr<const theory::TheorySnapshot>> catalogs;
};

void Writer(State& st, const std::atomic<bool>& stop, WriterLog* log) {
  std::optional<theory::ConstraintId> previous;
  const auto start = Clock::now();
  for (int64_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
    const auto due = start + k * kWriterPeriod;
    std::this_thread::sleep_until(due);
    if (stop.load(std::memory_order_relaxed)) break;
    std::vector<service::Mutation> sweep = {
        service::Mutation::Add(RandomOd(st.writer_rng, 2))};
    if (previous) sweep.push_back(service::Mutation::Remove(*previous));
    const auto begin = Clock::now();
    service::ApplyResult r;
    {
      RequestScope request;
      OD_TRACE_SPAN("call.service.apply");
      r = st.server->Apply(kTenant, sweep);
    }
    const auto end = Clock::now();
    previous = r.added.front();
    log->apply_ms.push_back(MsBetween(due, end));
    log->lag_ms.push_back(MsBetween(due, begin));
    log->memo_seeded.push_back(static_cast<double>(r.memo_seeded));
    // Only this thread writes, so the published catalog is this sweep's.
    auto catalog = st.server->Catalog(kTenant);
    log->catalogs[catalog->epoch] = std::move(catalog);
  }
}

/// Replays every logged answer against a fresh prover over the catalog
/// its session had pinned.
void Replay(const std::vector<ReaderLog>& readers, const WriterLog& writer,
            const State& st, Outcomes* outcomes) {
  std::map<uint64_t, std::vector<const Logged*>> by_epoch;
  for (const ReaderLog& r : readers) {
    for (const Logged& l : r.logged) by_epoch[l.epoch].push_back(&l);
  }
  for (const auto& [epoch, logged] : by_epoch) {
    auto it = writer.catalogs.find(epoch);
    if (it == writer.catalogs.end()) {
      for (size_t i = 0; i < logged.size(); ++i) {
        outcomes->Record("no catalog kept for epoch " + std::to_string(epoch));
      }
      continue;
    }
    prover::Prover fresh(*it->second);
    for (const Logged* l : logged) {
      const OrderDependency& q = st.queries[static_cast<size_t>(l->query)];
      const bool want = fresh.Implies(q);
      outcomes->Record(want == l->answer
                           ? std::string()
                           : "epoch " + std::to_string(epoch) + " " +
                                 q.ToString() + ": session said " +
                                 (l->answer ? "implied" : "not implied"));
    }
  }
}

}  // namespace

void RunChurn(const RunConfig& cfg, Metrics* out, Outcomes* outcomes) {
  std::unique_ptr<State> st;
  const double setup_s = TimedSetup(kSetupRepeats, &st, [&] {
    return Setup(cfg.seed);
  });
  const std::string label = od::common::FormatLabel("tenant", kTenant);

  std::vector<ReaderLog> readers(kReaders);
  WriterLog writer;
  writer.catalogs[st->server->PublishedEpoch(kTenant)] =
      st->server->Catalog(kTenant);
  std::atomic<bool> stop{false};
  Phases phases(cfg);
  std::optional<MaxSampler> queue_depth;
  if (cfg.trace) {
    queue_depth.emplace(GaugeReader("od_threadpool_queue_depth"),
                        std::chrono::microseconds(200));
  }
  malloc_trim(0);  // heap that set-up freed does not count as peak RSS
  MaxSampler rss(ResidentBytes, std::chrono::milliseconds(10));
  const RegistryWindow window;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back(Reader, std::cref(*st), t, std::cref(stop),
                         &readers[static_cast<size_t>(t)]);
  }
  threads.emplace_back(Writer, std::ref(*st), std::cref(stop), &writer);
  double elapsed_s = 0;
  while (elapsed_s < cfg.seconds) {
    phases.TracedAt(elapsed_s);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  const double peak_rss_mb = MiB(rss.max());

  phases.Stop();
  const service::TenantStats stats = st->server->Stats(kTenant);

  std::vector<double> implies_us, refresh_us;
  std::map<std::string, std::vector<double>> untraced_us, traced_us;
  int64_t calls = 0;
  for (const ReaderLog& r : readers) {
    implies_us.insert(implies_us.end(), r.implies_us.begin(),
                      r.implies_us.end());
    refresh_us.insert(refresh_us.end(), r.refresh_us.begin(),
                      r.refresh_us.end());
    for (size_t i = 0; i < r.implies_us.size(); ++i) {
      (r.traced[i] ? traced_us : untraced_us)["implies"].push_back(
          r.implies_us[i]);
    }
    calls += r.calls;
  }
  // Every Implies and Apply is an attempted operation; the sampled answers
  // are the ones checked.
  int64_t logged = 0;
  for (const ReaderLog& r : readers) logged += static_cast<int64_t>(r.logged.size());
  const int64_t applies = static_cast<int64_t>(writer.apply_ms.size());
  outcomes->RecordUnchecked(calls - logged + applies);
  Replay(readers, writer, *st, outcomes);

  Metrics& m = *out;
  const double n = static_cast<double>(calls);
  if (!cfg.trace) {
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = peak_rss_mb;
    m["request_gmean_ms"] = GeoMean(implies_us) / 1000.0;
    m["request_tail95_ms"] = TailMean(implies_us, 0.95) / 1000.0;
    m["requests_per_s"] = n / elapsed_s;
    return;
  }
  FillRegistryLayers(window, n, static_cast<double>(applies), &m);
  m["common.pool_queue_depth_max"] = static_cast<double>(queue_depth->max());
  queue_depth.reset();
  const double implies =
      static_cast<double>(window.Counter("od_service_implies_total", label));
  const double batches =
      static_cast<double>(window.Counter("od_service_batches_total", label));
  m["service.fastpath_hit_ratio"] = Ratio(
      static_cast<double>(
          window.Counter("od_service_fastpath_hits_total", label)),
      implies);
  m["service.batches"] = Ratio(batches, n);
  m["service.batch_size_mean"] = Ratio(
      static_cast<double>(
          window.Counter("od_service_batched_queries_total", label)),
      batches);
  m["service.refresh_us_p50"] = Percentile(refresh_us, 0.5);
  m["service.memo_seeded_per_apply"] = Mean(writer.memo_seeded);
  m["service.publish_us_p50"] =
      window.Histogram("od_service_publish_us", label).ValueAtQuantile(0.5);
  m["service.apply_ms_p50"] = Percentile(writer.apply_ms, 0.5);
  m["service.apply_ms_p95"] = Percentile(writer.apply_ms, 0.95);
  m["service.implies_us_p99"] = Percentile(implies_us, 0.99);
  m["service.epoch_memo_size"] = static_cast<double>(stats.epoch_memo_size);
  m["bench.writer_lag_ms_p95"] = Percentile(writer.lag_ms, 0.95);
  m["common.trace_overhead_pct"] = TraceOverheadPct(untraced_us, traced_us);
  AnalyzeTrace(TraceExportPath(cfg), &m, outcomes);
}

}  // namespace odbench
