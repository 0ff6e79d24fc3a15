// Workloads olap_ods and olap_no_ods: the paper's Section 2.3 warehouse
// queries as requests through service::Session (Plan, then Execute), with
// the tenants' OD catalogs declared (olap_ods) or empty (olap_no_ods).
// Same data, same query stream for one seed; only the catalogs differ.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/partition.h"
#include "harness.h"
#include "optimizer/planner.h"
#include "prover/prover.h"
#include "service/service.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace odbench {
namespace {

using namespace od;

constexpr int kFirstYear = 1998;
constexpr int kYears = 5;
constexpr int64_t kFactRows = 2000000;
constexpr int kItems = 1000;
constexpr int kStores = 50;
constexpr int kPartitions = 60;
constexpr int64_t kTaxRows = 1000000;
constexpr int64_t kMaxIncome = 250000;
constexpr int kDop = 4;
constexpr int64_t kSpillBudgetRows = 262144;
constexpr int kSetupRepeats = 3;
/// Templates take their base year from kFirstYear..kFirstYear+2 (each spans
/// three years); daily sales takes any of the five years.
constexpr int kTemplateYears = 3;

const char* const kDailySales = "daily_sales";
const char* const kTaxOrderBy = "tax_order_by";
const char* const kTaxTop100 = "tax_top100";

/// One distinct (request kind, parameter) query with its reference answer.
struct Query {
  std::string kind;
  int year = 0;  ///< 0 for the tax queries
  bool on_dates = true;  ///< tenant "dates" (star queries) or "tax"
  opt::LogicalQuery logical;
  std::vector<engine::ColumnId> order_by;
  engine::Table reference;  ///< catalog-free dop-1 answer
};

struct Data {
  engine::Table dim;
  engine::Table fact;
  engine::Table taxes;
  std::unique_ptr<engine::OrderedIndex> fact_index;
  std::unique_ptr<engine::OrderedIndex> income_index;
  std::unique_ptr<engine::PartitionedTable> parts;
};

struct State {
  std::unique_ptr<Data> data;
  std::vector<Query> queries;
  std::vector<std::string> kinds;                // request kinds, in order
  std::vector<std::vector<size_t>> by_kind;      // kind -> query indexes
  std::unique_ptr<common::ThreadPool> pool;
  std::unique_ptr<service::Server> server;
  std::optional<service::Session> dates;
  std::optional<service::Session> tax;
};

std::unique_ptr<Data> MakeData(uint64_t seed) {
  auto d = std::make_unique<Data>();
  d->dim = warehouse::GenerateDateDim(kFirstYear, kYears);
  d->fact = warehouse::GenerateStoreSales(
      kFactRows, d->dim.col(0).Int(0), d->dim.num_rows(), kItems, kStores,
      static_cast<uint32_t>(seed * 2654435761u + 1));
  d->taxes = warehouse::GenerateTaxTable(
      kTaxRows, kMaxIncome, static_cast<uint32_t>(seed * 2246822519u + 7));
  const warehouse::StoreSalesColumns f;
  d->fact_index = std::make_unique<engine::OrderedIndex>(
      &d->fact, engine::SortSpec{f.ss_sold_date_sk});
  d->parts = std::make_unique<engine::PartitionedTable>(
      engine::PartitionedTable::PartitionByRange(d->fact, f.ss_sold_date_sk,
                                                 kPartitions));
  d->income_index = std::make_unique<engine::OrderedIndex>(
      &d->taxes, engine::SortSpec{warehouse::TaxColumns().income});
  return d;
}

/// The request queries. Catalog binding is explicit: date_dim and taxes
/// leave `ods` null so Session::Plan binds them to the session's tenant,
/// and store_sales gets its own empty catalog (with a shared prover, so its
/// trivial proofs are memoized across requests as the tenant's are). Left
/// null, store_sales would be bound to the date_dim tenant catalog too,
/// whose column ids mean something else on the fact table (see
/// odbench/README.md).
std::vector<Query> MakeQueries(const Data& d) {
  auto fact_catalog = std::make_shared<theory::Theory>();
  auto fact_prover = std::make_shared<prover::Prover>(fact_catalog);
  auto bind_fact = [&](opt::LogicalQuery* q) {
    q->tables[0].ods = fact_catalog;
    q->tables[0].prover = fact_prover;
  };
  std::vector<Query> out;
  for (int y = kFirstYear; y < kFirstYear + kTemplateYears; ++y) {
    for (const opt::DateRangeQuery& q :
         warehouse::TpcdsDateQueries(y, kTemplateYears)) {
      Query r;
      r.kind = q.name;
      r.year = y;
      r.logical = warehouse::ToLogicalQuery(q, &d.fact, &d.dim,
                                            d.fact_index.get(), d.parts.get(),
                                            /*dim_ods=*/nullptr);
      bind_fact(&r.logical);
      out.push_back(std::move(r));
    }
  }
  for (int y = kFirstYear; y < kFirstYear + kYears; ++y) {
    Query r;
    r.kind = kDailySales;
    r.year = y;
    r.logical = warehouse::DailySalesQuery(&d.fact, &d.dim, d.fact_index.get(),
                                           d.parts.get(), /*dim_ods=*/nullptr,
                                           y);
    bind_fact(&r.logical);
    r.order_by = r.logical.order_by;
    out.push_back(std::move(r));
  }
  for (const char* kind : {kTaxOrderBy, kTaxTop100}) {
    Query r;
    r.kind = kind;
    r.on_dates = false;
    r.logical = warehouse::TaxOrderByQuery(&d.taxes, d.income_index.get(),
                                           /*tax_ods=*/nullptr);
    if (r.kind == kTaxTop100) r.logical.limit = 100;
    r.order_by = r.logical.order_by;
    out.push_back(std::move(r));
  }
  return out;
}

/// The reference answer: the same logical query planned with no catalog
/// at all, serially, outside the service.
engine::Table ReferenceAnswer(const Query& q) {
  opt::LogicalQuery bare = q.logical;
  for (opt::TableRef& t : bare.tables) {
    t.ods = nullptr;
    t.prover = nullptr;
  }
  opt::ExecStats stats;
  return Canonical(opt::PlanQuery(bare).Execute(&stats), q.order_by);
}

opt::PlanOptions RequestOptions(common::ThreadPool* pool) {
  opt::PlanOptions o;
  o.dop = kDop;
  o.pool = pool;
  o.spill_budget_rows = kSpillBudgetRows;
  o.spill_dir = ".bench_build";
  return o;
}

/// What one request produced, beyond its answer.
struct Served {
  double plan_ms = 0;
  double exec_ms = 0;
  int plan_sorts_elided = 0;
  int plan_joins_elided = 0;
  opt::ExecStats stats;
};

/// Plan + Execute through the session, each call inside its own span under
/// one request trace. `explain` runs EXPLAIN ANALYZE after the request
/// (outside its timing) so the planner's row-estimate histogram fills.
engine::Table Serve(const service::Session& session, const Query& q,
                    const opt::PlanOptions& options, bool explain,
                    Served* s) {
  engine::Table out;
  std::optional<opt::PhysicalPlan> plan;
  {
    RequestScope request;
    const auto t0 = Clock::now();
    {
      OD_TRACE_SPAN("call.optimizer.plan");
      plan.emplace(session.Plan(q.logical, opt::CostModel(), options));
    }
    const auto t1 = Clock::now();
    {
      OD_TRACE_SPAN("call.exec.execute");
      // The plan carries the context it was planned under; re-stamp it so
      // service.execute nests under this call, not under service.plan.
      plan->set_trace_context(common::Tracer::CurrentContext());
      out = session.Execute(*plan, &s->stats);
    }
    const auto t2 = Clock::now();
    s->plan_ms = MsBetween(t0, t1);
    s->exec_ms = MsBetween(t1, t2);
  }
  s->plan_sorts_elided = plan->sorts_elided();
  s->plan_joins_elided = plan->joins_elided();
  if (explain) (void)plan->ExplainAnalyze();
  return out;
}

/// Plan-shape assertions: a lost OD proof must fail loudly, not read as a
/// slowdown. Empty when the shape is as expected.
std::string CheckShape(const Query& q, const Served& s, bool with_ods) {
  const std::string tag = q.kind + "(" + std::to_string(q.year) + "): ";
  if (!with_ods) {
    if (s.plan_sorts_elided != 0 || s.plan_joins_elided != 0) {
      return tag + "an enforcer was elided without any OD declared";
    }
    return "";
  }
  if (q.kind == kTaxOrderBy &&
      (s.plan_sorts_elided < 1 || s.stats.sorts != 0)) {
    return tag + "the ORDER BY sort was not elided";
  }
  if (q.on_dates && q.kind != kDailySales &&
      (s.plan_joins_elided != 1 || s.stats.joins != 0)) {
    return tag + "the date_dim join was not eliminated";
  }
  if (q.kind == kDailySales &&
      (s.plan_sorts_elided != 2 || s.plan_joins_elided != 1 ||
       s.stats.sorts != 0 || s.stats.joins != 0)) {
    return tag + "expected the join and both sorts elided, got sorts_elided=" +
           std::to_string(s.plan_sorts_elided) +
           " joins_elided=" + std::to_string(s.plan_joins_elided);
  }
  return "";
}

std::unique_ptr<State> Setup(uint64_t seed, bool with_ods) {
  auto st = std::make_unique<State>();
  st->data = MakeData(seed);
  st->queries = MakeQueries(*st->data);
  for (size_t i = 0; i < st->queries.size(); ++i) {
    const std::string& kind = st->queries[i].kind;
    auto it = std::find(st->kinds.begin(), st->kinds.end(), kind);
    if (it == st->kinds.end()) {
      st->kinds.push_back(kind);
      st->by_kind.emplace_back();
      it = st->kinds.end() - 1;
    }
    st->by_kind[static_cast<size_t>(it - st->kinds.begin())].push_back(i);
  }
  st->pool = std::make_unique<common::ThreadPool>(kDop);
  // References: independent serial plans, four at a time.
  st->pool->ParallelFor(static_cast<int64_t>(st->queries.size()),
                        [&st](int64_t i) {
                          Query& q = st->queries[static_cast<size_t>(i)];
                          q.reference = ReferenceAnswer(q);
                        });
  service::ServerOptions so;
  so.pool = st->pool.get();
  st->server = std::make_unique<service::Server>(so);
  st->server->CreateTenant(
      "dates", with_ods ? warehouse::DateDimOds() : DependencySet());
  st->server->CreateTenant("tax",
                           with_ods ? warehouse::TaxOds() : DependencySet());
  st->dates.emplace(st->server->OpenSession("dates"));
  st->tax.emplace(st->server->OpenSession("tax"));
  return st;
}

}  // namespace

void RunOlap(const RunConfig& cfg, bool with_ods, Metrics* out,
             Outcomes* outcomes) {
  std::unique_ptr<State> st;
  const double setup_s = TimedSetup(kSetupRepeats, &st, [&] {
    auto s = Setup(cfg.seed, with_ods);
    // Warm-up: one request of every kind, checked like any other, so the
    // epoch memos hold every proof before the window opens.
    const opt::PlanOptions options = RequestOptions(s->pool.get());
    for (const std::vector<size_t>& qs : s->by_kind) {
      const Query& q = s->queries[qs.front()];
      Served served;
      engine::Table got =
          Serve(q.on_dates ? *s->dates : *s->tax, q, options, false, &served);
      std::string problem = CheckShape(q, served, with_ods);
      if (problem.empty()) problem = CompareTables(got, q.reference, q.order_by);
      if (!problem.empty()) problem = "warm-up " + q.kind + ": " + problem;
      outcomes->Record(problem);
    }
    return s;
  });

  const opt::PlanOptions options = RequestOptions(st->pool.get());
  // The request stream: shuffled rounds holding every kind once, so each
  // run sees the kinds in equal shares; parameters drawn per request.
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + 11);
  std::vector<size_t> round;
  size_t next = 0;
  auto next_query = [&]() -> const Query& {
    if (next == round.size()) {
      round.resize(st->kinds.size());
      for (size_t k = 0; k < round.size(); ++k) round[k] = k;
      std::shuffle(round.begin(), round.end(), rng);
      next = 0;
    }
    const std::vector<size_t>& qs = st->by_kind[round[next++]];
    std::uniform_int_distribution<size_t> pick(0, qs.size() - 1);
    return st->queries[qs[pick(rng)]];
  };

  std::vector<double> latency_ms, plan_us, exec_ms;
  std::map<std::string, std::vector<double>> kind_ms;
  std::map<std::string, std::vector<double>> untraced_ms, traced_ms;
  opt::ExecStats totals;
  int64_t sorts_elided = 0, joins_elided = 0;
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
  // Whole rounds only, so every kind has the same share of the samples.
  while (busy_s < cfg.seconds ||
         static_cast<int64_t>(latency_ms.size()) < min_samples ||
         next != round.size()) {
    const bool traced = phases.TracedAt(busy_s);
    const Query& q = next_query();
    Served served;
    engine::Table got = Serve(q.on_dates ? *st->dates : *st->tax, q, options,
                              cfg.trace, &served);
    const double ms = served.plan_ms + served.exec_ms;
    busy_s += ms / 1000.0;
    latency_ms.push_back(ms);
    plan_us.push_back(served.plan_ms * 1000.0);
    exec_ms.push_back(served.exec_ms);
    kind_ms[q.kind].push_back(ms);
    (traced ? traced_ms : untraced_ms)[q.kind].push_back(ms);
    totals.Merge(served.stats);
    sorts_elided += served.plan_sorts_elided;
    joins_elided += served.plan_joins_elided;
    const auto check_start = Clock::now();
    std::string problem = CheckShape(q, served, with_ods);
    if (problem.empty()) {
      problem = CompareTables(got, q.reference, q.order_by);
      if (!problem.empty()) {
        problem = q.kind + "(" + std::to_string(q.year) + "): " + problem;
      }
    }
    outcomes->Record(problem);
    check_ms += MsBetween(check_start, Clock::now());
    if (busy_s > 4 * cfg.seconds && next == round.size()) break;
  }
  // Throughput is over the wall-clock window, answer checks left out.
  const double window_s =
      (MsBetween(window_start, Clock::now()) - check_ms) / 1000.0;
  phases.Stop();
  const double peak_rss_mb = MiB(rss.max());

  // Per-kind medians feed the ODs-on/off ablation table (run.py).
  std::printf("{\"kind_medians_ms\": {");
  bool first = true;
  for (const std::string& kind : st->kinds) {
    std::printf("%s\"%s\": %.6f", first ? "" : ", ", kind.c_str(),
                Percentile(kind_ms[kind], 0.5));
    first = false;
  }
  std::printf("}}\n");

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
  m["prover.searches_per_plan"] =
      Ratio(static_cast<double>(window.Counter("od_prover_searches_total")), n);
  m["optimizer.plan_us_p50"] = Percentile(plan_us, 0.5);
  m["optimizer.plan_us_p99"] = Percentile(plan_us, 0.99);
  m["optimizer.plans_enumerated_per_query"] =
      Ratio(static_cast<double>(
                window.Counter("od_planner_plans_enumerated_total")),
            n);
  m["optimizer.sorts_elided_per_query"] =
      Ratio(static_cast<double>(sorts_elided), n);
  m["optimizer.joins_elided_per_query"] =
      Ratio(static_cast<double>(joins_elided), n);
  m["exec.execute_ms_p50"] = Percentile(exec_ms, 0.5);
  m["exec.execute_ms_p95"] = Percentile(exec_ms, 0.95);
  m["exec.rows_scanned_per_query"] = Ratio(totals.rows_scanned, n);
  m["exec.rows_joined_per_query"] = Ratio(totals.rows_joined, n);
  m["exec.sorts_per_query"] = Ratio(totals.sorts, n);
  m["exec.joins_per_query"] = Ratio(totals.joins, n);
  m["exec.fragments_per_query"] = Ratio(totals.fragments, n);
  m["exec.exchange_peak_rows"] = static_cast<double>(totals.exchange_peak_rows);
  m["exec.spills"] = Ratio(totals.spills, n);
  m["exec.spilled_bytes"] = Ratio(static_cast<double>(totals.spilled_bytes), n);
  m["engine.rows_examined_per_row_out"] =
      Ratio(static_cast<double>(totals.rows_scanned),
            static_cast<double>(totals.rows_output));
  m["engine.partitions_scanned_per_query"] = Ratio(totals.partitions_scanned, n);
  m["common.trace_overhead_pct"] = TraceOverheadPct(untraced_ms, traced_ms);
  AnalyzeTrace(TraceExportPath(cfg), &m, outcomes);
}

}  // namespace odbench
