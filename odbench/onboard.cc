// Workload onboard: bringing a new table under OD management. Each request
// mines the table's ODs (DiscoverODs, 2 threads), creates a fresh tenant
// seeded with the discovered cover, opens a session and proves the table's
// declared ODs plus every single-column pair [i] -> [j] in one ProveAll.
// Tables rotate round robin: a 20-year date dimension, a 50,000-row tax
// table and a 2,000 x 9 planted table.

#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "discovery/discovery.h"
#include "engine/table.h"
#include "harness.h"
#include "service/service.h"
#include "warehouse/date_dim.h"
#include "warehouse/tax_schedule.h"

namespace odbench {
namespace {

using namespace od;

/// DiscoverODs waits for all its threads at every lattice level, so one
/// thread a busy host stalls stalls the request. At 4 threads on a 4-vCPU
/// host the mean of the slowest 5% spread 0.18-0.34 (IQR / median over ten
/// seeds); at 2 threads it follows the typical latency.
constexpr int kDiscoveryThreads = 2;
constexpr int kPoolWorkers = 4;
constexpr int kDateYears = 20;
constexpr int64_t kTaxRows = 50000;
constexpr int64_t kMaxIncome = 250000;
constexpr int64_t kPlantedRows = 2000;
constexpr int kPlantedCols = 9;
/// Set-up takes about 0.4 s; seven rounds keep its median steady.
constexpr int kSetupRepeats = 7;

/// The planted table of bench_discovery_parallel's BM_ParallelDiscoverWide:
/// a 16-value dimension, a strictly monotone function of it, a per-class
/// co-varying column, and noise columns that force real validation work.
engine::Table PlantedTable(int64_t rows, int cols, uint32_t seed) {
  engine::Schema s;
  for (int c = 0; c < cols; ++c) {
    s.Add("c" + std::to_string(c), engine::DataType::kInt64);
  }
  engine::Table t(s);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> noise(0, rows / 4 + 1);
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t dim = i % 16;
    t.col(0).AppendInt(dim);
    t.col(1).AppendInt(dim * 3 + 1);
    t.col(2).AppendInt(dim * 1000 + (i % 97));
    for (int c = 3; c < cols; ++c) t.col(c).AppendInt(noise(rng));
    t.FinishRow();
  }
  return t;
}

/// What the planted table declares: c0 <-> c1, and c2 orders both.
DependencySet PlantedOds() {
  DependencySet m;
  m.Add(AttributeList({0}), AttributeList({1}));
  m.Add(AttributeList({1}), AttributeList({0}));
  m.Add(AttributeList({2}), AttributeList({0}));
  m.Add(AttributeList({2}), AttributeList({1}));
  return m;
}

struct Onboarding {
  std::string name;
  engine::Table table;
  DependencySet declared;
  /// Declared ODs then every [i] -> [j], i != j, over the table's columns
  /// (discovery interns column c as attribute c).
  std::vector<OrderDependency> questions;
  /// Whether each question holds in the data.
  std::vector<bool> holds;
};

/// Whether [a] -> [b] holds in `t`: in `a` order, `b` is constant within
/// ties of `a` and never decreases (checking adjacent rows suffices).
bool PairHolds(const engine::Table& t, engine::ColumnId a, engine::ColumnId b) {
  std::vector<int64_t> rows(static_cast<size_t>(t.num_rows()));
  std::iota(rows.begin(), rows.end(), 0);
  const engine::Column& ca = t.col(a);
  const engine::Column& cb = t.col(b);
  std::sort(rows.begin(), rows.end(), [&](int64_t x, int64_t y) {
    return ca.Compare(x, ca, y) < 0;
  });
  for (size_t i = 1; i < rows.size(); ++i) {
    const int by_a = ca.Compare(rows[i - 1], ca, rows[i]);
    const int by_b = cb.Compare(rows[i - 1], cb, rows[i]);
    if (by_a == 0 ? by_b != 0 : by_b > 0) return false;
  }
  return true;
}

struct State {
  std::vector<Onboarding> tables;
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<service::Server> server;
  int64_t tenants = 0;
};

std::unique_ptr<State> Setup(uint64_t seed) {
  auto st = std::make_unique<State>();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 5);
  const int first_year =
      1970 + static_cast<int>(std::uniform_int_distribution<int>(0, 30)(rng));
  st->tables.push_back({"date_dim",
                        warehouse::GenerateDateDim(first_year, kDateYears),
                        warehouse::DateDimOds(),
                        {}});
  st->tables.push_back(
      {"taxes",
       warehouse::GenerateTaxTable(kTaxRows, kMaxIncome,
                                   static_cast<uint32_t>(rng())),
       warehouse::TaxOds(),
       {}});
  st->tables.push_back(
      {"planted",
       PlantedTable(kPlantedRows, kPlantedCols, static_cast<uint32_t>(rng())),
       PlantedOds(),
       {}});
  for (Onboarding& o : st->tables) {
    o.questions = o.declared.ods();
    o.holds.assign(o.questions.size(), true);
    const int cols = o.table.num_columns();
    for (int i = 0; i < cols; ++i) {
      for (int j = 0; j < cols; ++j) {
        if (i == j) continue;
        o.questions.emplace_back(AttributeList({i}), AttributeList({j}));
        o.holds.push_back(PairHolds(o.table, i, j));
      }
    }
  }
  st->pool = std::make_unique<common::ThreadPool>(kPoolWorkers);
  service::ServerOptions so;
  so.pool = st->pool.get();
  st->server = std::make_unique<service::Server>(so);
  return st;
}

struct Served {
  double discover_ms = 0;
  double create_us = 0;
  double prove_all_ms = 0;
  double total_ms = 0;
  std::vector<bool> answers;  ///< ProveAll's, one per question
};

/// One onboarding request: discover, create the tenant, ProveAll.
void Onboard(State& st, const Onboarding& o, Served* s) {
  const std::string tenant = o.name + "-" + std::to_string(st.tenants++);
  RequestScope request;
  const auto t0 = Clock::now();
  discovery::DiscoveryOptions opts;
  opts.num_threads = kDiscoveryThreads;
  std::optional<discovery::DiscoveryResult> mined;
  {
    OD_TRACE_SPAN("call.discovery.discover");
    mined.emplace(discovery::DiscoverODs(o.table, opts));
  }
  const auto t1 = Clock::now();
  {
    OD_TRACE_SPAN("call.service.create_tenant");
    st.server->CreateTenant(tenant, mined->ods);
  }
  const auto t2 = Clock::now();
  {
    OD_TRACE_SPAN("call.prover.prove_all");
    service::Session session = st.server->OpenSession(tenant);
    s->answers = session.ProveAll(o.questions);
  }
  const auto t3 = Clock::now();
  s->discover_ms = MsBetween(t0, t1);
  s->create_us = MsBetween(t1, t2) * 1000.0;
  s->prove_all_ms = MsBetween(t2, t3);
  s->total_ms = MsBetween(t0, t3);
}

/// Empty when the discovered cover implies exactly the questions that hold
/// in the data: every declared OD, and each column pair iff it holds.
std::string CheckAnswers(const Onboarding& o,
                         const std::vector<bool>& answers) {
  if (answers.size() != o.questions.size()) {
    return o.name + ": ProveAll returned " + std::to_string(answers.size()) +
           " answers for " + std::to_string(o.questions.size()) + " questions";
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i] != o.holds[i]) {
      return o.name + ": the discovered cover " +
             (answers[i] ? "implies " : "does not imply ") +
             o.questions[i].ToString() + (o.holds[i] ? ", which holds" : "") +
             (static_cast<int>(i) < o.declared.Size() ? " (declared)" : "");
    }
  }
  return "";
}

}  // namespace

void RunOnboard(const RunConfig& cfg, Metrics* out, Outcomes* outcomes) {
  std::unique_ptr<State> st;
  const double setup_s = TimedSetup(kSetupRepeats, &st, [&] {
    auto s = Setup(cfg.seed);
    // Warm-up: onboard each table once.
    for (const Onboarding& o : s->tables) {
      Served served;
      Onboard(*s, o, &served);
      const std::string problem = CheckAnswers(o, served.answers);
      outcomes->Record(problem.empty() ? problem : "warm-up " + problem);
    }
    return s;
  });

  std::vector<double> latency_ms, discover_ms, create_us, prove_all_ms;
  std::map<std::string, std::vector<double>> untraced_ms, traced_ms;
  const int64_t min_samples = SamplesForTail(0.95);
  Phases phases(cfg);
  std::optional<MaxSampler> queue_depth;
  if (cfg.trace) {
    queue_depth.emplace(GaugeReader("od_threadpool_queue_depth"),
                        std::chrono::microseconds(200));
  }
  malloc_trim(0);  // heap that set-up freed does not count as peak RSS
  MaxSampler rss(ResidentBytes, std::chrono::milliseconds(10));
  const RegistryWindow window;
  const auto window_start = Clock::now();
  double busy_s = 0;
  double check_ms = 0;
  // Whole rounds only, so every table has the same share of the samples.
  for (size_t next = 0;
       busy_s < cfg.seconds ||
       static_cast<int64_t>(latency_ms.size()) < min_samples ||
       next % st->tables.size() != 0;
       ++next) {
    const bool traced = phases.TracedAt(busy_s);
    const Onboarding& o = st->tables[next % st->tables.size()];
    Served served;
    Onboard(*st, o, &served);
    const auto check_start = Clock::now();
    outcomes->Record(CheckAnswers(o, served.answers));
    check_ms += MsBetween(check_start, Clock::now());
    busy_s += served.total_ms / 1000.0;
    latency_ms.push_back(served.total_ms);
    discover_ms.push_back(served.discover_ms);
    create_us.push_back(served.create_us);
    prove_all_ms.push_back(served.prove_all_ms);
    (traced ? traced_ms : untraced_ms)[o.name].push_back(served.total_ms);
    if (busy_s > 4 * cfg.seconds && (next + 1) % st->tables.size() == 0) {
      break;  // a pathologically slow build
    }
  }
  // Throughput is over the wall-clock window, answer checks left out.
  const double window_s =
      (MsBetween(window_start, Clock::now()) - check_ms) / 1000.0;
  phases.Stop();
  const double peak_rss_mb = MiB(rss.max());

  Metrics& m = *out;
  const double n = static_cast<double>(latency_ms.size());
  if (!cfg.trace) {
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = peak_rss_mb;
    m["request_gmean_ms"] = GeoMean(latency_ms);
    m["request_tail95_ms"] = TailMean(latency_ms, 0.95);
    m["requests_per_s"] = n / window_s;
    return;
  }
  FillRegistryLayers(window, n, 0, &m);
  m["common.pool_queue_depth_max"] = static_cast<double>(queue_depth->max());
  queue_depth.reset();
  m["discovery.discover_ms_p50"] = Percentile(discover_ms, 0.5);
  m["service.create_tenant_us_p50"] = Percentile(create_us, 0.5);
  m["prover.prove_all_ms_p50"] = Percentile(prove_all_ms, 0.5);
  m["common.trace_overhead_pct"] = TraceOverheadPct(untraced_ms, traced_ms);
  AnalyzeTrace(TraceExportPath(cfg), &m, outcomes);
}

}  // namespace odbench
