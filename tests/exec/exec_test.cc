// Streaming-operator contracts: batch boundaries, ordering-property
// propagation, the StreamAggregate contiguity precondition, NaN-bearing
// double keys (must agree with od::CompareDoubles), and early exit.
// Aggregates and joins are checked against the naive oracle
// (tests/oracle/naive_oracle.h), on edge inputs too: empty, single-row and
// all-equal-key tables.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "oracle/naive_oracle.h"

namespace od {
namespace exec {
namespace {

using engine::AggSpec;
using engine::DataType;
using engine::Predicate;
using engine::Schema;
using engine::Table;

Table MakeKv(int64_t rows, int64_t key_mod) {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("v", DataType::kDouble);
  Table t(s);
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(i % key_mod), Value(static_cast<double>(i) * 0.5)});
  }
  return t;
}

bool TablesEqualExactly(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (a.col(c).Get(r) != b.col(c).Get(r)) return false;
    }
  }
  return true;
}

TEST(ScanTest, BatchBoundariesAndStats) {
  Table t = MakeKv(10000, 7);
  opt::ExecStats stats;
  OpPtr scan = Scan(&t, &stats);
  Table out = Drain(scan.get(), &stats);
  EXPECT_TRUE(TablesEqualExactly(t, out));
  EXPECT_EQ(stats.rows_scanned, 10000);
  EXPECT_EQ(stats.rows_output, 10000);
  // 10000 rows at 4096/batch: 4096 + 4096 + 1808.
  EXPECT_EQ(stats.batches, 3);
}

TEST(ScanTest, EmptyTableAndSingleBatch) {
  Table empty = MakeKv(0, 1);
  OpPtr scan = Scan(&empty);
  Batch b;
  EXPECT_FALSE(scan->Next(&b));
  EXPECT_FALSE(scan->Next(&b));  // stays exhausted

  Table one = MakeKv(100, 3);
  opt::ExecStats stats;
  OpPtr s2 = Scan(&one, &stats);
  Table out = Drain(s2.get(), &stats);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_TRUE(TablesEqualExactly(one, out));
}

TEST(ScanTest, CarriesOrderingProperty) {
  Table t = engine::SortBy(MakeKv(100, 5), {0, 1});
  OpPtr scan = Scan(&t);
  EXPECT_EQ(scan->ordering(), engine::SortSpec({0, 1}));
}

TEST(FilterTest, MatchesMaterializingFilter) {
  Table t = MakeKv(5000, 13);
  const std::vector<Predicate> preds{
      {0, Predicate::Op::kGe, Value(3)}, {0, Predicate::Op::kLe, Value(9)}};
  OpPtr f = Filter(Scan(&t, nullptr, 512), preds);
  Table streamed = Drain(f.get());
  Table materialized = t.Gather(engine::FilterRowIds(t, preds));
  EXPECT_TRUE(TablesEqualExactly(materialized, streamed));
}

TEST(FilterTest, SkipsEmptyBatchesAndPreservesOrdering) {
  Table t = engine::SortBy(MakeKv(1000, 10), {0});
  // k == 7 rows are contiguous after the sort: most batches yield nothing.
  OpPtr f = Filter(Scan(&t, nullptr, 16),
                   {{0, Predicate::Op::kEq, Value(7)}});
  EXPECT_EQ(f->ordering(), engine::SortSpec({0}));
  Batch b;
  while (f->Next(&b)) {
    EXPECT_GT(b.num_rows(), 0);  // contract: non-empty batches only
  }
}

TEST(ProjectTest, RemapsOrdering) {
  Table t = engine::SortBy(MakeKv(100, 5), {0});
  OpPtr p = Project(Scan(&t), {1, 0});
  // Child ordering [0] survives as output position 1.
  EXPECT_EQ(p->ordering(), engine::SortSpec({1}));
  Table out = Drain(p.get());
  EXPECT_EQ(out.num_columns(), 2);
  EXPECT_EQ(out.schema().col(0).name, "v");
  EXPECT_EQ(out.schema().col(1).name, "k");
}

TEST(StreamAggregateTest, MatchesHashAggAcrossBatchBoundaries) {
  // Sorted input with group runs straddling the (tiny) batch boundary:
  // batch size 7 never aligns with the group size.
  Table t = engine::SortBy(MakeKv(1000, 23), {0});
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kSum, 1, "s"},
                                  {AggSpec::Kind::kCount, 0, "c"},
                                  {AggSpec::Kind::kMin, 1, "mn"},
                                  {AggSpec::Kind::kMax, 1, "mx"},
                                  {AggSpec::Kind::kAvg, 1, "av"}};
  OpPtr agg = StreamAggregate(Scan(&t, nullptr, 7), {0}, aggs);
  Table streamed = Drain(agg.get());
  EXPECT_EQ(streamed.num_rows(), 23);
  EXPECT_TRUE(
      engine::SameRowMultiset(oracle::GroupBy(t, {0}, aggs), streamed));
  // Order-exploiting: the output streams out in group order.
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
}

TEST(StreamAggregateTest, GroupStraddlingManyBatches) {
  // One giant group spanning dozens of batches, then a tiny one.
  Schema s;
  s.Add("g", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 500; ++i) t.AppendRow({Value(1), Value(i)});
  t.AppendRow({Value(2), Value(int64_t{1000})});
  OpPtr agg = StreamAggregate(Scan(&t, nullptr, 8), {0},
                              {{AggSpec::Kind::kCount, 0, "c"}});
  Table out = Drain(agg.get());
  ASSERT_EQ(out.num_rows(), 2);
  EXPECT_EQ(out.col(1).Int(0), 500);
  EXPECT_EQ(out.col(1).Int(1), 1);
}

TEST(StreamAggregateTest, NonContiguousInputEmitsOneRowPerRun) {
  // The documented precondition: equal group keys must be contiguous.
  // On a violating input the operator emits one row per maximal run —
  // MORE groups than the query has, the failure mode the planner's
  // contiguity proof exists to prevent.
  Table t = MakeKv(50, 5);  // keys cycle 0..4: every group re-appears
  OpPtr stream = StreamAggregate(Scan(&t, nullptr, 16), {0},
                                 {{AggSpec::Kind::kCount, 0, "c"}});
  Table streamed = Drain(stream.get());
  Table groups =
      oracle::GroupBy(t, {0}, {{AggSpec::Kind::kCount, 0, "c"}});
  EXPECT_EQ(streamed.num_rows(), 50);  // one per run of length 1
  EXPECT_GT(streamed.num_rows(), groups.num_rows());
}

TEST(StreamAggregateTest, EmptyInput) {
  Table t = MakeKv(0, 1);
  OpPtr agg = StreamAggregate(Scan(&t), {0},
                              {{AggSpec::Kind::kSum, 1, "s"}});
  Batch b;
  EXPECT_FALSE(agg->Next(&b));
}

TEST(StreamDistinctTest, MatchesHashDistinctOnSortedInput) {
  Table t = engine::SortBy(MakeKv(777, 19), {0});
  OpPtr d = StreamDistinct(Scan(&t, nullptr, 10), {0});
  Table streamed = Drain(d.get());
  OpPtr h = HashAggregate(Scan(&t), {0}, {});  // hash DISTINCT
  Table hashed = Drain(h.get());
  EXPECT_TRUE(engine::SameRowMultiset(hashed, streamed));
  EXPECT_TRUE(engine::SameRowMultiset(oracle::GroupBy(t, {0}, {}), streamed));
  EXPECT_EQ(streamed.num_rows(), 19);
}

TEST(StreamDistinctTest, NonContiguousEmitsRuns) {
  Table t = MakeKv(10, 2);  // 0,1,0,1,...
  OpPtr d = StreamDistinct(Scan(&t), {0});
  EXPECT_EQ(Drain(d.get()).num_rows(), 10);
}

TEST(MergeJoinTest, MatchesNaiveOracle) {
  // Duplicate keys on both sides: cross products per equal-key run, with
  // runs straddling the 3-row batches.
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table l(s), r(s);
  const int64_t lkeys[] = {1, 1, 2, 3, 3, 3, 5, 7, 7, 9};
  const int64_t rkeys[] = {0, 1, 3, 3, 4, 5, 5, 7, 10};
  for (size_t i = 0; i < sizeof(lkeys) / sizeof(lkeys[0]); ++i) {
    l.AppendRow({Value(lkeys[i]), Value(static_cast<int64_t>(100 + i))});
  }
  for (size_t i = 0; i < sizeof(rkeys) / sizeof(rkeys[0]); ++i) {
    r.AppendRow({Value(rkeys[i]), Value(static_cast<int64_t>(200 + i))});
  }
  opt::ExecStats stats;
  OpPtr j = MergeJoin(Scan(&l, nullptr, 3), 0, Scan(&r, nullptr, 3), 0,
                      &stats);
  Table streamed = Drain(j.get(), &stats);
  Table reference = oracle::EquiJoin(l, 0, r, 0);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_EQ(stats.joins, 1);
  EXPECT_EQ(stats.rows_joined, streamed.num_rows());
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));

  // All-equal keys: a self-join is the full cross product.
  Table same = MakeKv(5, 1);
  OpPtr self = MergeJoin(Scan(&same, nullptr, 2), 0, Scan(&same, nullptr, 2),
                         0);
  Table cross = Drain(self.get());
  EXPECT_EQ(cross.num_rows(), 25);
  EXPECT_TRUE(
      engine::SameRowMultiset(oracle::EquiJoin(same, 0, same, 0), cross));
}

TEST(MergeJoinTest, EmptyInputs) {
  Table l = MakeKv(10, 3);
  Table empty = MakeKv(0, 1);
  OpPtr j1 = MergeJoin(Scan(&l), 0, Scan(&empty), 0);
  EXPECT_EQ(Drain(j1.get()).num_rows(), 0);
  OpPtr j2 = MergeJoin(Scan(&empty), 0, Scan(&l), 0);
  EXPECT_EQ(Drain(j2.get()).num_rows(), 0);
}

TEST(MergeJoinTest, NanDoubleKeysAgreeWithCompareDoubles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("k", DataType::kDouble);
  s.Add("side", DataType::kInt64);
  Table l(s), r(s);
  for (double k : {1.0, 2.5, 0.0, nan, nan}) {
    l.AppendRow({Value(k), Value(int64_t{1})});
  }
  for (double k : {2.5, 2.5, -0.0, nan}) {
    r.AppendRow({Value(k), Value(int64_t{2})});
  }
  // engine::SortBy orders doubles via od::CompareDoubles: NaNs equal each
  // other and sort after every ordered value.
  Table ls = engine::SortBy(l, {0});
  Table rs = engine::SortBy(r, {0});
  OpPtr j = MergeJoin(Scan(&ls, nullptr, 2), 0, Scan(&rs, nullptr, 2), 0);
  Table out = Drain(j.get());
  // 2.5 matches the right's run of two; +0.0 matches -0.0 (CompareDoubles
  // ties them); each left NaN matches the single right NaN.
  EXPECT_EQ(out.num_rows(), 2 + 1 + 2);
  int nan_rows = 0;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    if (std::isnan(out.col(0).Double(i))) ++nan_rows;
  }
  EXPECT_EQ(nan_rows, 2);
  // NaN joins stream out last — the total order puts NaN after everything.
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 1)));
}

TEST(SortTest, NanDoublesAgreeWithEngineSort) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("x", DataType::kDouble);
  Table t(s);
  for (double v : {3.0, nan, -1.0, 0.0, nan, 2.0, -0.0}) {
    t.AppendRow({Value(v)});
  }
  opt::ExecStats stats;
  OpPtr sorted = Sort(Scan(&t, nullptr, 2), {0}, &stats);
  Table out = Drain(sorted.get());
  Table reference = engine::SortBy(t, {0});
  EXPECT_TRUE(TablesEqualExactly(reference, out));
  EXPECT_EQ(stats.sorts, 1);
  // All NaNs land at the end, per CompareDoubles.
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 1)));
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 2)));
  EXPECT_FALSE(std::isnan(out.col(0).Double(out.num_rows() - 3)));
}

TEST(SortTest, AlreadySortedInputCountsAsElided) {
  Table t = engine::SortBy(MakeKv(500, 7), {0});
  opt::ExecStats stats;
  OpPtr sorted = Sort(Scan(&t), {0}, &stats);
  Table out = Drain(sorted.get());
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_EQ(stats.sorts_elided, 1);
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));
}

TEST(LimitTest, EarlyExitStopsScanning) {
  Table t = MakeKv(100000, 11);
  opt::ExecStats stats;
  OpPtr lim = Limit(Scan(&t, &stats), 10);
  Table out = Drain(lim.get(), &stats);
  EXPECT_EQ(out.num_rows(), 10);
  // Only the first batch was ever pulled.
  EXPECT_EQ(stats.rows_scanned, kDefaultBatchRows);
}

TEST(TopKTest, MatchesSortPlusLimit) {
  Table t = MakeKv(5000, 997);
  OpPtr topk = TopK(Scan(&t), {0, 1}, 25);
  Table got = Drain(topk.get());
  Table full = engine::SortBy(t, {0, 1});
  ASSERT_EQ(got.num_rows(), 25);
  for (int64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(got.col(0).Get(i), full.col(0).Get(i));
    EXPECT_EQ(got.col(1).Get(i), full.col(1).Get(i));
  }
}

// The edge inputs every aggregate runs on: a multi-batch table, an empty
// one, a single row, and all-equal keys.
std::vector<Table> AggregateInputs() {
  std::vector<Table> inputs{MakeKv(3000, 17), MakeKv(0, 1), MakeKv(1, 1),
                            MakeKv(5, 1)};
  return inputs;
}

const std::vector<AggSpec>& AllAggs() {
  static const std::vector<AggSpec> aggs{{AggSpec::Kind::kCount, 0, "c"},
                                         {AggSpec::Kind::kSum, 1, "s"},
                                         {AggSpec::Kind::kMin, 1, "mn"},
                                         {AggSpec::Kind::kMax, 1, "mx"},
                                         {AggSpec::Kind::kAvg, 1, "av"}};
  return aggs;
}

/// ParallelHashAggregate over `fragments` row-range morsels of `t`, with
/// no pool (fragments run inline, same results).
OpPtr ParallelAgg(const Table* t, int fragments,
                  std::vector<engine::ColumnId> groups,
                  std::vector<AggSpec> aggs) {
  auto factory = [t, fragments](int i, opt::ExecStats* stats) {
    const int64_t n = t->num_rows();
    return ScanRange(t, n * i / fragments, n * (i + 1) / fragments, stats,
                     100);
  };
  return ParallelHashAggregate(fragments, factory, std::move(groups),
                               std::move(aggs), /*pool=*/nullptr);
}

TEST(HashAggregateTest, MatchesNaiveOracle) {
  for (const Table& t : AggregateInputs()) {
    SCOPED_TRACE("rows=" + std::to_string(t.num_rows()));
    const Table expected = oracle::GroupBy(t, {0}, AllAggs());
    OpPtr serial = HashAggregate(Scan(&t, nullptr, 100), {0}, AllAggs());
    Table got = Drain(serial.get());
    EXPECT_TRUE(engine::SameRowMultiset(expected, got));
    for (int fragments : {1, 3}) {
      OpPtr parallel = ParallelAgg(&t, fragments, {0}, AllAggs());
      Table par = Drain(parallel.get());
      EXPECT_TRUE(engine::SameRowMultiset(expected, par));
      // One kernel, groups in first-seen order: at one fragment the
      // parallel operator reproduces the serial one row for row.
      if (fragments == 1) {
        EXPECT_TRUE(TablesEqualExactly(got, par));
      }
    }
  }
}

TEST(HashAggregateTest, GroupsComeOutInFirstSeenOrder) {
  Schema s;
  s.Add("k", DataType::kInt64);
  Table t(s);
  for (int64_t k : {5, 3, 5, 9, 3, 1}) t.AppendRow({Value(k)});
  OpPtr agg = HashAggregate(Scan(&t, nullptr, 2), {0},
                            {{AggSpec::Kind::kCount, 0, "c"}});
  Table out = Drain(agg.get());
  ASSERT_EQ(out.num_rows(), 4);
  const int64_t keys[] = {5, 3, 9, 1};
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(out.col(0).Int(i), keys[i]);
  // Fragments merge in fragment order, then slot order: rows [0,3) see
  // 5, 3 first; rows [3,6) add 9, then 1.
  OpPtr par = ParallelAgg(&t, 2, {0}, {{AggSpec::Kind::kCount, 0, "c"}});
  EXPECT_TRUE(TablesEqualExactly(out, Drain(par.get())));
}

/// `t` grouped on every column with a count, sorted by the group columns
/// (Value order: -0 ties +0, NaN ties NaN) — through HashAggregate,
/// ParallelHashAggregate at 1..3 fragments, and StreamAggregate(Sort).
std::vector<Table> GroupEveryWay(const Table& t) {
  std::vector<engine::ColumnId> groups;
  for (int c = 0; c < t.num_columns(); ++c) groups.push_back(c);
  const std::vector<AggSpec> count{{AggSpec::Kind::kCount, 0, "n"}};
  std::vector<Table> out;
  out.push_back(Drain(HashAggregate(Scan(&t, nullptr, 2), groups, count).get()));
  for (int fragments : {1, 2, 3}) {
    out.push_back(Drain(ParallelAgg(&t, fragments, groups, count).get()));
  }
  out.push_back(Drain(
      StreamAggregate(Sort(Scan(&t, nullptr, 2), groups), groups, count)
          .get()));
  for (Table& r : out) r = engine::SortBy(r, groups);
  return out;
}

TEST(HashAggregateTest, GroupKeysAreExactForDoublesAndStrings) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema ds;
  ds.Add("d", DataType::kDouble);
  Table doubles(ds);
  for (double v : {1.0000001, 1.0000002, 0.0, -0.0, nan, -nan}) {
    doubles.AppendRow({Value(v)});
  }
  // 1.0000001 and 1.0000002 stay apart; the zeros and the NaNs tie.
  const std::vector<Table> by_double = GroupEveryWay(doubles);
  for (const Table& got : by_double) {
    ASSERT_EQ(got.num_rows(), 4);
    EXPECT_EQ(got.col(0).Double(0), 0.0);
    EXPECT_EQ(got.col(1).Int(0), 2);
    EXPECT_EQ(got.col(0).Double(1), 1.0000001);
    EXPECT_EQ(got.col(0).Double(2), 1.0000002);
    EXPECT_TRUE(std::isnan(got.col(0).Double(3)));
    EXPECT_EQ(got.col(1).Int(3), 2);
    EXPECT_TRUE(TablesEqualExactly(by_double[0], got));
  }

  // Two string columns whose concatenations with a separator would meet.
  Schema ss;
  ss.Add("a", DataType::kString);
  ss.Add("b", DataType::kString);
  Table strings(ss);
  strings.AppendRow({Value(std::string("a\x01b")), Value(std::string("c"))});
  strings.AppendRow({Value(std::string("a")), Value(std::string("b\x01c"))});
  const std::vector<Table> by_string = GroupEveryWay(strings);
  for (const Table& got : by_string) {
    ASSERT_EQ(got.num_rows(), 2);
    EXPECT_EQ(got.col(2).Int(0), 1);
    EXPECT_EQ(got.col(2).Int(1), 1);
    EXPECT_TRUE(TablesEqualExactly(by_string[0], got));
  }
}

TEST(HashJoinTest, StreamingProbeMatchesOracleAndPreservesOrder) {
  Table fact = engine::SortBy(MakeKv(2000, 50), {0});
  Schema ds;
  ds.Add("k", DataType::kInt64);
  ds.Add("name", DataType::kString);
  Table dim(ds);
  for (int64_t i = 0; i < 50; i += 2) {  // only even keys match
    dim.AppendRow({Value(i), Value("d" + std::to_string(i))});
  }
  opt::ExecStats stats;
  OpPtr j = HashJoin(Scan(&fact, nullptr, 64), 0, Scan(&dim), 0, &stats);
  EXPECT_EQ(j->ordering(), engine::SortSpec({0}));  // probe order survives
  Table streamed = Drain(j.get(), &stats);
  Table reference = oracle::EquiJoin(fact, 0, dim, 0);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
  EXPECT_EQ(stats.joins, 1);

  // Empty build or probe side, and all-equal keys (a 5 x 5 self-join).
  Table empty = MakeKv(0, 1);
  OpPtr j1 = HashJoin(Scan(&fact), 0, Scan(&empty), 0);
  EXPECT_EQ(Drain(j1.get()).num_rows(), 0);
  OpPtr j2 = HashJoin(Scan(&empty), 0, Scan(&dim), 0);
  EXPECT_EQ(Drain(j2.get()).num_rows(), 0);
  Table same = MakeKv(5, 1);
  OpPtr self = HashJoin(Scan(&same), 0, Scan(&same), 0);
  Table cross = Drain(self.get());
  EXPECT_EQ(cross.num_rows(), 25);
  EXPECT_TRUE(
      engine::SameRowMultiset(oracle::EquiJoin(same, 0, same, 0), cross));
}

TEST(IndexRangeScanTest, MatchesIndexScanRange) {
  Table t = MakeKv(5000, 100);
  engine::OrderedIndex idx(&t, {0});
  opt::ExecStats stats;
  OpPtr scan = IndexRangeScan(&idx, {{10, 20}}, &stats, 128);
  EXPECT_EQ(scan->ordering(), engine::SortSpec({0}));
  Table streamed = Drain(scan.get(), &stats);
  Table reference = idx.ScanRange(10, 20);
  EXPECT_TRUE(TablesEqualExactly(reference, streamed));
  EXPECT_EQ(stats.rows_scanned, reference.num_rows());
}

TEST(PartitionedScanTest, PrunesAndMatchesMaterializingScan) {
  Table t = MakeKv(8000, 64);
  engine::PartitionedTable parts =
      engine::PartitionedTable::PartitionByRange(t, 0, 16);
  opt::ExecStats stats;
  OpPtr scan = PartitionedScan(&parts, {{8, 15}}, &stats, 256);
  Table streamed = Drain(scan.get(), &stats);
  int touched = 0;
  Table reference = parts.ScanRange(8, 15, &touched);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_EQ(stats.partitions_scanned, touched);
  EXPECT_LT(stats.partitions_scanned, 16);
}

/// 16 partitions of width 10 over keys [0, 160) with very unequal sizes,
/// five of them empty; column 1 is the source row number, so any
/// misplaced or duplicated row shows.
engine::PartitionedTable UnequalPartitions() {
  const int64_t sizes[16] = {5, 0, 37, 1, 0, 0, 120, 3, 64, 0, 9, 250, 0, 2,
                             17, 40};
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("row", DataType::kInt64);
  Table t(s);
  // Interleave the buckets, so partition order is not the source order.
  for (int64_t j = 0; j < 250; ++j) {
    for (int64_t b = 0; b < 16; ++b) {
      if (j < sizes[b]) {
        t.AppendRow({Value(b * 10 + (j * 7) % 10), Value(t.num_rows())});
      }
    }
  }
  return engine::PartitionedTable::PartitionByRange(t, 0, 16);
}

TEST(PartitionedScanTest, RowMorselsConcatenateToTheSerialScan) {
  const engine::PartitionedTable parts = UnequalPartitions();
  ASSERT_EQ(parts.num_partitions(), 16);
  ASSERT_EQ(parts.partition(1).num_rows(), 0);
  const std::vector<std::optional<std::pair<int64_t, int64_t>>> ranges = {
      std::nullopt, {{23, 118}}, {{61, 64}}, {{40, 59}}, {{0, 159}}};
  for (const auto& range : ranges) {
    // The morsel row space by hand: every row of every surviving
    // partition, in partition then row order.
    std::vector<std::pair<int, int64_t>> space;
    for (int p = 0; p < parts.num_partitions(); ++p) {
      if (range && !parts.Overlaps(p, range->first, range->second)) continue;
      for (int64_t r = 0; r < parts.partition(p).num_rows(); ++r) {
        space.emplace_back(p, r);
      }
    }
    const auto total = static_cast<int64_t>(space.size());
    for (int64_t batch : {int64_t{1}, int64_t{7}, int64_t{4096}}) {
      const std::string where =
          (range ? "range [" + std::to_string(range->first) + ", " +
                       std::to_string(range->second) + "]"
                 : std::string("no range")) +
          " batch " + std::to_string(batch);
      opt::ExecStats serial_stats;
      OpPtr serial = PartitionedScan(&parts, range, &serial_stats, batch);
      const Table whole = Drain(serial.get(), &serial_stats);
      EXPECT_EQ(serial_stats.rows_scanned, total) << where;
      for (int k = 1; k <= 7; ++k) {
        SCOPED_TRACE(where + " k=" + std::to_string(k));
        Table joined(whole.schema());
        int64_t rows_scanned = 0;
        int64_t partitions_scanned = 0;
        for (int f = 0; f < k; ++f) {
          const int64_t begin = total * f / k;
          const int64_t end = total * (f + 1) / k;
          opt::ExecStats stats;
          OpPtr morsel =
              PartitionedScan(&parts, range, &stats, batch, begin, end);
          const Table got = Drain(morsel.get(), &stats);
          // Each morsel is exactly its slice of the row space, filtered.
          Table expected(whole.schema());
          for (int64_t i = begin; i < end; ++i) {
            const Table& p = parts.partition(space[i].first);
            const int64_t key = p.col(0).Int(space[i].second);
            if (range && (key < range->first || key > range->second)) {
              continue;
            }
            expected.AppendRow({Value(key), p.col(1).Get(space[i].second)});
          }
          EXPECT_TRUE(TablesEqualExactly(expected, got))
              << "morsel [" << begin << ", " << end << ")";
          EXPECT_EQ(stats.rows_scanned, end - begin);
          rows_scanned += stats.rows_scanned;
          partitions_scanned += stats.partitions_scanned;
          for (int64_t r = 0; r < got.num_rows(); ++r) {
            joined.AppendRow({got.col(0).Get(r), got.col(1).Get(r)});
          }
        }
        EXPECT_TRUE(TablesEqualExactly(whole, joined));
        EXPECT_EQ(rows_scanned, serial_stats.rows_scanned);
        EXPECT_EQ(partitions_scanned, serial_stats.partitions_scanned);
      }
    }
  }
}

TEST(PartitionedScanTest, MorselStartingMidPartitionAfterTheFirst) {
  const engine::PartitionedTable parts = UnequalPartitions();
  // [23, 118] keeps partitions 2..11; its row space starts with the 37
  // rows of partition 2, then 3 (1 row), 6 (120 rows), ... Row 40 of the
  // space is row 2 of partition 6, wholly inside the range.
  opt::ExecStats stats;
  OpPtr morsel = PartitionedScan(&parts, {{23, 118}}, &stats, 4096, 40, 45);
  const Table got = Drain(morsel.get(), &stats);
  const Table& p6 = parts.partition(6);
  ASSERT_EQ(got.num_rows(), 5);
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(got.col(1).Int(r), p6.col(1).Int(2 + r));
  }
  EXPECT_EQ(stats.rows_scanned, 5);
  EXPECT_EQ(stats.partitions_scanned, 0);  // its first row is not here
  // One row earlier: the morsel starts partition 6 and counts it.
  opt::ExecStats from_start;
  Drain(PartitionedScan(&parts, {{23, 118}}, &from_start, 4096, 38, 45).get(),
        &from_start);
  EXPECT_EQ(from_start.partitions_scanned, 1);
}

TEST(OperatorContractTest, InvalidColumnIdsThrow) {
  Table t = MakeKv(10, 3);
  EXPECT_THROW(Filter(Scan(&t), {{-1, Predicate::Op::kEq, Value(0)}}),
               std::out_of_range);
  EXPECT_THROW(Project(Scan(&t), {5}), std::out_of_range);
  EXPECT_THROW(StreamAggregate(Scan(&t), {9}, {}), std::out_of_range);
  EXPECT_THROW(StreamAggregate(Scan(&t), {0}, {{AggSpec::Kind::kSum, -1, "s"}}),
               std::out_of_range);
  EXPECT_THROW(HashAggregate(Scan(&t), {-1}, {}), std::out_of_range);
  EXPECT_THROW(HashAggregate(Scan(&t), {0}, {{AggSpec::Kind::kMin, 2, "m"}}),
               std::out_of_range);
  EXPECT_THROW(ParallelAgg(&t, 2, {2}, {}), std::out_of_range);
  EXPECT_THROW(ParallelAgg(&t, 2, {0}, {{AggSpec::Kind::kAvg, -1, "a"}}),
               std::out_of_range);
  // A kCount aggregate ignores its column id — even an invalid one.
  const std::vector<AggSpec> count_any{{AggSpec::Kind::kCount, -1, "n"}};
  EXPECT_EQ(Drain(HashAggregate(Scan(&t), {0}, count_any).get()).num_rows(),
            3);
  EXPECT_EQ(Drain(ParallelAgg(&t, 2, {0}, count_any).get()).num_rows(), 3);
  EXPECT_NO_THROW(StreamAggregate(Scan(&t), {0}, count_any));
  EXPECT_THROW(Sort(Scan(&t), {3}), std::out_of_range);
  EXPECT_THROW(MergeJoin(Scan(&t), 0, Scan(&t), -1), std::out_of_range);
  EXPECT_THROW(HashJoin(Scan(&t), 7, Scan(&t), 0), std::out_of_range);
  // HashJoin builds and probes through the unchecked int64 accessor; a
  // non-int64 key must be rejected up front (MergeJoin handles any type).
  EXPECT_THROW(HashJoin(Scan(&t), 1, Scan(&t), 1), std::invalid_argument);
}

TEST(OperatorContractTest, DrainingTheSameTreeTwiceThrows) {
  Table t = MakeKv(100, 3);
  OpPtr op = Sort(Scan(&t), {0});
  Drain(op.get());
  // Operators are single-use; a second drain would silently return empty
  // rows without the StartConsume guard.
  EXPECT_THROW(Drain(op.get()), std::logic_error);
}

TEST(OperatorContractTest, SinksRejectAlreadyConsumedChildren) {
  Table t = MakeKv(100, 3);
  OpPtr scan = Scan(&t);
  Drain(scan.get());
  OpPtr sort = Sort(std::move(scan), {0});
  Batch b;
  EXPECT_THROW(sort->Next(&b), std::logic_error);
}

TEST(CheckOrderTest, PassesAnHonestOrderingClaim) {
  Table t = MakeKv(5000, 7);
  OpPtr op = CheckOrder(Sort(Scan(&t, nullptr, /*batch_rows=*/3), {0, 1}));
  Table out = Drain(op.get());
  EXPECT_EQ(out.num_rows(), 5000);
  EXPECT_TRUE(engine::IsSortedBy(out, {0, 1}));
}

TEST(CheckOrderTest, NoClaimMeansNoChecking) {
  Table t = MakeKv(100, 7);  // unsorted by k, but Scan claims nothing
  OpPtr op = CheckOrder(Scan(&t));
  EXPECT_EQ(Drain(op.get()).num_rows(), 100);
}

// An operator that *lies* about its ordering property: forwards the
// child's (unsorted) stream while claiming it is sorted by `spec`.
class LyingOp : public Operator {
 public:
  LyingOp(OpPtr child, engine::SortSpec claim) : child_(std::move(child)) {
    schema_ = child_->schema();
    ordering_ = std::move(claim);
  }
  bool Next(Batch* out) override { return child_->Next(out); }
  std::string Describe(int indent) const override {
    return Pad(indent) + "Lying\n" + child_->Describe(indent + 1);
  }

 private:
  OpPtr child_;
};

TEST(CheckOrderTest, CatchesAFalseClaimAcrossBatchBoundaries) {
  Table t = MakeKv(100, 7);  // k cycles 0..6: descends at every wrap
  // Single-row batches: the only adjacent pairs are across batches.
  OpPtr op = CheckOrder(std::make_unique<LyingOp>(
      Scan(&t, nullptr, /*batch_rows=*/1), engine::SortSpec{0}));
  EXPECT_THROW(Drain(op.get()), std::logic_error);
}

TEST(CheckOrderTest, NanDoublesTieUnderTheClaim) {
  // NaNs order after every value and tie with each other — a stream
  // sorted that way must pass the checker (od::CompareDoubles semantics).
  Schema s;
  s.Add("x", DataType::kDouble);
  Table t(s);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, 2.0, 2.0, nan, nan}) t.AppendRow({Value(v)});
  OpPtr op = CheckOrder(
      std::make_unique<LyingOp>(Scan(&t, nullptr, 2), engine::SortSpec{0}));
  EXPECT_EQ(Drain(op.get()).num_rows(), 5);
}

// ---------------------------------------------------------------------------
// GROUP BY, DISTINCT, joins and projection over a five-row sales table.

Table MakeSales() {
  Schema schema;
  schema.Add("day", DataType::kInt64);
  schema.Add("store", DataType::kInt64);
  schema.Add("amount", DataType::kDouble);
  Table t(schema);
  // day, store, amount
  t.AppendRow({Value(3), Value(1), Value(30.0)});
  t.AppendRow({Value(1), Value(2), Value(10.0)});
  t.AppendRow({Value(2), Value(1), Value(20.0)});
  t.AppendRow({Value(1), Value(1), Value(15.0)});
  t.AppendRow({Value(3), Value(2), Value(5.0)});
  return t;
}

Table MakeDayDim() {
  Schema schema;
  schema.Add("day", DataType::kInt64);
  schema.Add("label", DataType::kString);
  Table t(schema);
  t.AppendRow({Value(1), Value("one")});
  t.AppendRow({Value(2), Value("two")});
  t.AppendRow({Value(3), Value("three")});
  return t;
}

TEST(GroupByTest, HashAndStreamAgree) {
  Table t = MakeSales();
  const std::vector<AggSpec> aggs{
      {AggSpec::Kind::kSum, 2, "sum_amount"},
      {AggSpec::Kind::kCount, 0, "cnt"},
      {AggSpec::Kind::kMin, 2, "min_amount"},
      {AggSpec::Kind::kMax, 2, "max_amount"},
      {AggSpec::Kind::kAvg, 2, "avg_amount"},
  };
  Table hashed = Drain(HashAggregate(Scan(&t), {1}, aggs).get());
  Table streamed =
      Drain(StreamAggregate(Sort(Scan(&t), {1}), {1}, aggs).get());
  EXPECT_TRUE(engine::SameRowMultiset(hashed, streamed));
  ASSERT_EQ(hashed.num_rows(), 2);
  // Store 1 is seen first: amounts 30, 20, 15.
  EXPECT_EQ(hashed.col(0).Int(0), 1);
  EXPECT_DOUBLE_EQ(hashed.col(1).Double(0), 65.0);
  EXPECT_EQ(hashed.col(2).Int(0), 3);
  EXPECT_DOUBLE_EQ(hashed.col(3).Double(0), 15.0);
  EXPECT_DOUBLE_EQ(hashed.col(4).Double(0), 30.0);
  EXPECT_NEAR(hashed.col(5).Double(0), 65.0 / 3, 1e-9);
}

TEST(GroupByTest, StreamRequiresContiguity) {
  Table t = MakeSales();
  // Unsorted input: stream aggregation produces MORE groups than hash
  // (store 1 appears in several runs) — the failure mode OD reasoning
  // must prevent.
  const std::vector<AggSpec> count{{AggSpec::Kind::kCount, 0, "c"}};
  Table streamed = Drain(StreamAggregate(Scan(&t), {1}, count).get());
  Table hashed = Drain(HashAggregate(Scan(&t), {1}, count).get());
  EXPECT_GT(streamed.num_rows(), hashed.num_rows());
}

TEST(DistinctTest, HashAndStream) {
  Table t = MakeSales();
  Table h = Drain(HashAggregate(Scan(&t), {1}, {}).get());
  EXPECT_EQ(h.num_rows(), 2);
  Table s = Drain(StreamDistinct(Sort(Scan(&t), {1}), {1}).get());
  EXPECT_TRUE(engine::SameRowMultiset(h, s));
}

TEST(JoinTest, HashJoinBasic) {
  Table sales = MakeSales();
  Table dim = MakeDayDim();
  Table joined = Drain(HashJoin(Scan(&sales), 0, Scan(&dim), 0).get());
  EXPECT_EQ(joined.num_rows(), 5);
  EXPECT_EQ(joined.num_columns(), 5);
  // Collision on "day" gets prefixed.
  EXPECT_GE(joined.Find("r_day"), 0);
}

TEST(JoinTest, SortMergeMatchesHash) {
  Table sales = MakeSales();
  Table dim = MakeDayDim();
  Table hj = Drain(HashJoin(Scan(&sales), 0, Scan(&dim), 0).get());
  Table smj = Drain(
      MergeJoin(Sort(Scan(&sales), {0}), 0, Sort(Scan(&dim), {0}), 0).get());
  EXPECT_TRUE(engine::SameRowMultiset(hj, smj));
}

TEST(JoinTest, DuplicateKeysCrossProduct) {
  Schema s;
  s.Add("k", DataType::kInt64);
  Table l(s), r(s);
  l.AppendRow({Value(7)});
  l.AppendRow({Value(7)});
  r.AppendRow({Value(7)});
  r.AppendRow({Value(7)});
  r.AppendRow({Value(7)});
  EXPECT_EQ(Drain(HashJoin(Scan(&l), 0, Scan(&r), 0).get()).num_rows(), 6);
  EXPECT_EQ(Drain(MergeJoin(Scan(&l), 0, Scan(&r), 0).get()).num_rows(), 6);
}

TEST(ProjectConcatTest, Basics) {
  Table t = MakeSales();
  Table p = Drain(Project(Scan(&t), {2, 0}).get());
  EXPECT_EQ(p.num_columns(), 2);
  EXPECT_EQ(p.schema().col(0).name, "amount");
  Table c = engine::Concat({&t, &t});
  EXPECT_EQ(c.num_rows(), 10);
}

}  // namespace
}  // namespace exec
}  // namespace od
