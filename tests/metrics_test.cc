// Observability tests: the process-wide metrics registry (concurrency,
// histogram percentiles against a sorted-vector oracle, Prometheus text
// exposition), per-query trace spans for a distributed skyline plan, the
// cache/maintenance counter reconciliation against per-query metrics, the
// slow-query counter, and the pinned QueryMetrics::ToString format.
//
// The registry is process-wide, so every assertion on registry counters
// works with before/after deltas, never absolute values.
#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "datagen/datagen.h"
#include "exec/trace.h"
#include "test_util.h"

namespace sparkline {
namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::MetricsRegistry;
using ::sparkline::testing::MakePointsTable;

TablePtr SmallPoints(const std::string& name = "pts") {
  return MakePointsTable(name, {{1, 1.0, 9.0},
                                {2, 2.0, 8.0},
                                {3, 3.0, 7.0},
                                {4, 4.0, 6.0},
                                {5, 2.5, 9.5},
                                {6, 0.5, 10.0}});
}

// --- registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSamePointer) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("testreg_stable_total", {{"k", "v"}});
  Counter* b = reg.GetCounter("testreg_stable_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  // Different labels, different series.
  Counter* c = reg.GetCounter("testreg_stable_total", {{"k", "w"}});
  EXPECT_NE(a, c);
  // Label order must not matter (labels are sorted when rendered).
  Counter* d = reg.GetCounter("testreg_multi_total",
                              {{"a", "1"}, {"b", "2"}});
  Counter* e = reg.GetCounter("testreg_multi_total",
                              {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(d, e);
}

TEST(MetricsRegistryTest, ConcurrentHammerIsConsistent) {
  auto& reg = MetricsRegistry::Global();
  Counter* counter = reg.GetCounter("testhammer_total");
  Gauge* gauge = reg.GetGauge("testhammer_inflight");
  Histogram* hist = reg.GetHistogram("testhammer_us");
  const int64_t counter0 = counter->value();
  const int64_t gauge0 = gauge->value();
  const int64_t count0 = hist->count();
  const int64_t sum0 = hist->sum();

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  int64_t per_thread_sum = 0;
  for (int i = 0; i < kIters; ++i) per_thread_sum += i % 1000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t]() {
      // Half the increments go through a freshly resolved pointer to hammer
      // the registry map concurrently with the atomic hot path; periodic
      // scrapes race the recording threads on purpose.
      Counter* local = reg.GetCounter("testhammer_total");
      Gauge* g = reg.GetGauge("testhammer_inflight");
      Histogram* h = reg.GetHistogram("testhammer_us");
      for (int i = 0; i < kIters; ++i) {
        local->Increment();
        reg.GetCounter("testhammer_total")->Increment();
        g->Add();
        g->Sub();
        h->Observe(i % 1000);
        if (i % 5000 == (t * 631) % 5000) {
          (void)reg.TextExposition();
          (void)reg.JsonSnapshot();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(counter->value() - counter0, 2ll * kThreads * kIters);
  EXPECT_EQ(gauge->value() - gauge0, 0);
  EXPECT_EQ(hist->count() - count0, static_cast<int64_t>(kThreads) * kIters);
  EXPECT_EQ(hist->sum() - sum0, kThreads * per_thread_sum);
}

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  // BucketUpperBound(BucketIndex(v)) >= v, with <= 25% relative slack.
  std::vector<int64_t> probes = {0,  1,   2,    3,    4,      5,     7,
                                 8,  100, 1000, 4095, 123456, 1 << 20,
                                 (1ll << 40) + 17};
  for (int64_t v : probes) {
    const int idx = Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0) << v;
    ASSERT_LT(idx, Histogram::kNumBuckets) << v;
    const int64_t ub = Histogram::BucketUpperBound(idx);
    EXPECT_GE(ub, v) << v;
    EXPECT_LE(ub, v + v / 4 + 1) << v;
    if (idx > 0) EXPECT_LT(Histogram::BucketUpperBound(idx - 1), v) << v;
  }
  // The extremes: INT64_MAX lands in the last bucket, rendered +Inf.
  const int last = Histogram::BucketIndex(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(last, Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(last),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
}

TEST(HistogramTest, PercentileMatchesSortedVectorOracle) {
  Histogram hist;
  std::vector<int64_t> values;
  std::mt19937_64 rng(42);
  // Log-uniform spread: latencies span many octaves, like real queue waits.
  for (int i = 0; i < 5000; ++i) {
    const int shift = static_cast<int>(rng() % 28);
    const int64_t v = static_cast<int64_t>(rng() % (1ull << shift));
    values.push_back(v);
    hist.Observe(v);
  }
  std::sort(values.begin(), values.end());
  const Histogram::Snapshot snap = hist.snapshot();
  ASSERT_EQ(snap.count, static_cast<int64_t>(values.size()));

  for (double q : {0.0, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    // The same rank Percentile targets: 1-based, truncated, clamped.
    int64_t rank = static_cast<int64_t>(q * static_cast<double>(snap.count));
    rank = std::max<int64_t>(1, std::min<int64_t>(rank, snap.count));
    const int64_t oracle = values[static_cast<size_t>(rank - 1)];
    const int64_t got = snap.Percentile(q);
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(got, oracle + oracle / 4 + 1) << "q=" << q;
  }
  EXPECT_EQ(Histogram().snapshot().Percentile(0.5), 0);  // empty -> 0
}

// --- exposition --------------------------------------------------------------

TEST(ExpositionTest, PrometheusTextFormat) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("testexpo_requests_total", {{"code", "200"}})->Increment(3);
  reg.GetCounter("testexpo_requests_total", {{"code", "500"}})->Increment();
  reg.GetGauge("testexpo_in_flight")->Set(2);
  Histogram* hist = reg.GetHistogram("testexpo_latency_us");
  hist->Observe(1);
  hist->Observe(2);
  hist->Observe(2);
  hist->Observe(1000000);

  const std::string text = reg.TextExposition();
  auto has = [&](const std::string& line) {
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line
                                                  << "\nin:\n" << text;
  };
  has("# TYPE testexpo_requests_total counter\n");
  has("testexpo_requests_total{code=\"200\"} 3\n");
  has("testexpo_requests_total{code=\"500\"} 1\n");
  has("# TYPE testexpo_in_flight gauge\n");
  has("testexpo_in_flight 2\n");
  has("# TYPE testexpo_latency_us histogram\n");
  // Cumulative buckets: le="1" holds 1 observation, le="2" holds 3;
  // 1000000 lands in the [917504, 1048575] log bucket.
  has("testexpo_latency_us_bucket{le=\"1\"} 1\n");
  has("testexpo_latency_us_bucket{le=\"2\"} 3\n");
  has("testexpo_latency_us_bucket{le=\"1048575\"} 4\n");
  has("testexpo_latency_us_bucket{le=\"+Inf\"} 4\n");
  has("testexpo_latency_us_sum 1000005\n");
  has("testexpo_latency_us_count 4\n");

  // One # TYPE line per metric name, not per labeled series.
  size_t type_lines = 0;
  for (size_t pos = text.find("# TYPE testexpo_requests_total");
       pos != std::string::npos;
       pos = text.find("# TYPE testexpo_requests_total", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

// --- trace spans -------------------------------------------------------------

TEST(TraceTest, DistributedSkylineSpanTreeShape) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  TablePtr table = datagen::GeneratePoints(
      "tracepts", 400, 3, datagen::PointDistribution::kIndependent, 7);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  auto df = session.Sql(
      "SELECT id, d0, d1, d2 FROM tracepts SKYLINE OF d0 MIN, d1 MIN, d2 MIN");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  auto result = df->Collect();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_NE(result->trace, nullptr);
  const TraceSpan& root = *result->trace;
  EXPECT_EQ(root.kind, "query");
  EXPECT_GE(root.dur_ms, 0.0);
  // Root carries the query-level totals.
  bool saw_dominance = false;
  for (const auto& [key, value] : root.attrs) {
    if (key == "dominance_tests") saw_dominance = true;
  }
  EXPECT_TRUE(saw_dominance);

  const auto stages = root.ChildrenOfKind("stage");
  ASSERT_GE(stages.size(), 3u);  // scan, local skyline, exchange, global
  bool saw_local = false;
  bool saw_global = false;
  for (const TraceSpan* stage : stages) {
    const auto tasks = stage->ChildrenOfKind("task");
    EXPECT_FALSE(tasks.empty()) << stage->name;
    for (const TraceSpan* task : tasks) {
      EXPECT_GE(task->tid, 0);
      EXPECT_LT(task->tid, 4);
    }
    if (stage->name.find("LocalSkyline") != std::string::npos) {
      saw_local = true;
      EXPECT_EQ(tasks.size(), 4u);  // one task span per partition
    }
    if (stage->name.find("GlobalSkyline") != std::string::npos) {
      saw_global = true;
    }
  }
  EXPECT_TRUE(saw_local);
  EXPECT_TRUE(saw_global);

  const std::string json = result->TraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"task\""), std::string::npos);
}

TEST(TraceTest, DisabledTraceCostsNothingAndYieldsNull) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.trace.enabled", "false"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  auto df = session.Sql("SELECT id, x, y FROM pts SKYLINE OF x MIN, y MAX");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  auto result = df->Collect();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trace, nullptr);
  EXPECT_EQ(result->TraceJson(), "");
}

// --- reconciliation ----------------------------------------------------------

TEST(MetricsReconcileTest, CacheCountersReconcileWithQueryMetrics) {
  auto& reg = MetricsRegistry::Global();
  Counter* hits = reg.GetCounter("sparkline_cache_hits_total");
  Counter* misses = reg.GetCounter("sparkline_cache_misses_total");
  Counter* maintained =
      reg.GetCounter("sparkline_incremental_maintained_total");
  const int64_t hits0 = hits->value();
  const int64_t misses0 = misses->value();
  const int64_t maintained0 = maintained->value();

  Session session;
  ASSERT_OK(session.SetConf("sparkline.cache.enabled", "true"));
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints()));
  const std::string q = "SELECT id, x, y FROM pts SKYLINE OF x MIN, y MAX";

  int64_t seen_hits = 0;
  int64_t seen_misses = 0;
  auto run = [&]() {
    auto df = session.Sql(q);
    SL_CHECK(df.ok()) << df.status().ToString();
    auto result = df->Collect();
    SL_CHECK(result.ok()) << result.status().ToString();
    (result->metrics.cache_hit ? seen_hits : seen_misses) += 1;
    return result->metrics;
  };

  run();  // cold: miss + insert
  run();  // hit
  constexpr int kWrites = 3;
  for (int i = 0; i < kWrites; ++i) {
    // Strictly dominated inserts (x worse, y worse): delta-maintained
    // without touching the skyline, never an unsound classification.
    ASSERT_OK(session.catalog()->InsertInto(
        "pts", {{Value::Int64(100 + i), Value::Double(60.0 + i),
                 Value::Double(1.0)}}));
  }
  session.catalog()->DrainWrites();
  const QueryMetrics last = run();  // hit on the delta-advanced entry

  EXPECT_TRUE(last.cache_hit);
  EXPECT_EQ(last.cache_delta_maintained, kWrites);
  EXPECT_EQ(hits->value() - hits0, seen_hits);
  EXPECT_EQ(misses->value() - misses0, seen_misses);
  EXPECT_EQ(maintained->value() - maintained0, kWrites);
  EXPECT_EQ(seen_hits, 2);
  EXPECT_EQ(seen_misses, 1);
}

TEST(MetricsReconcileTest, StageHistogramAndTaskCountersAdvance) {
  auto& reg = MetricsRegistry::Global();
  Histogram* scan_us = reg.GetHistogram("sparkline_stage_us",
                                        {{"stage", "Scan pts2 [3 columns]"}});
  const int64_t scans0 = scan_us->count();

  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints("pts2")));
  auto df = session.Sql("SELECT id, x, y FROM pts2 SKYLINE OF x MIN, y MAX");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  auto result = df->Collect();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(scan_us->count() - scans0, 1);
}

// --- slow-query log ----------------------------------------------------------

TEST(SlowQueryTest, ThresholdGatesTheCounter) {
  auto& reg = MetricsRegistry::Global();
  Counter* slow = reg.GetCounter("sparkline_slow_queries_total");

  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(SmallPoints("slowpts")));
  const std::string q =
      "SELECT id, x, y FROM slowpts SKYLINE OF x MIN, y MAX";

  // Threshold far above any conceivable wall time: nothing is logged.
  ASSERT_OK(session.SetConf("sparkline.log.slow_query_ms", "3600000"));
  const int64_t slow0 = slow->value();
  (void)testing::Rows(&session, q);
  EXPECT_EQ(slow->value() - slow0, 0);

  // Threshold 0 with the feature "on" is off by definition.
  ASSERT_OK(session.SetConf("sparkline.log.slow_query_ms", "0"));
  (void)testing::Rows(&session, q);
  EXPECT_EQ(slow->value() - slow0, 0);

  // A 1 ms threshold: every real execution takes at least some wall time,
  // so force it with a generous per-row workload to stay deterministic.
  ASSERT_OK(session.SetConf("sparkline.log.slow_query_ms", "1"));
  TablePtr big = datagen::GeneratePoints(
      "slowbig", 4000, 4, datagen::PointDistribution::kAntiCorrelated, 9);
  ASSERT_OK(session.catalog()->RegisterTable(big));
  const int64_t slow1 = slow->value();
  (void)testing::Rows(
      &session,
      "SELECT id FROM slowbig SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN");
  EXPECT_GE(slow->value() - slow1, 1);
  EXPECT_EQ(reg.GetCounter("sparkline_slow_queries_total"), slow);

  ASSERT_FALSE(session.SetConf("sparkline.log.slow_query_ms", "-1").ok());
}

// --- QueryMetrics::ToString --------------------------------------------------

TEST(QueryMetricsTest, ToStringPinsFormatAndPrintsEveryField) {
  QueryMetrics m;
  m.wall_ms = 1.5;
  m.simulated_ms = 0.75;
  m.peak_memory_bytes = 3ll << 20;
  m.dominance_tests = 42;
  m.merge_dominance_tests = 17;
  m.exchange_rows_shipped = 11;
  m.exchange_bytes = 2048;
  m.tasks_retried = 1;
  m.tasks_failed = 2;
  m.cache_hit = true;
  m.cache_lookup_ms = 0.25;
  m.cache_delta_maintained = 5;
  m.projection_ms = 0.5;
  m.decode_ms = 0.125;
  m.matrix_builds["a"] = 2;
  m.matrix_builds["b"] = 1;
  m.matrix_reuses["c"] = 4;
  m.sfs_rows_skipped = 9;
  m.sfs_early_stops = 3;
  m.rows_served = 6;
  m.bytes_served = 1234;
  EXPECT_EQ(m.ToString(),
            "wall=1.5ms simulated=0.75ms peak_mem=3MB dominance_tests=42 "
            "merge_dom_tests=17 exchange_rows=11 exchange_bytes=2048 "
            "tasks_retried=1 tasks_failed=2 cache=hit "
            "cache_lookup=0.25ms cache_deltas=5 projection=0.5ms "
            "decode=0.125ms matrix_builds=3 matrix_reuses=4 sfs_skipped=9 "
            "sfs_stops=3 rows_served=6 bytes_served=1234");

  // Zero metrics still print every field (no conditional sections).
  EXPECT_EQ(QueryMetrics{}.ToString(),
            "wall=0ms simulated=0ms peak_mem=0MB dominance_tests=0 "
            "merge_dom_tests=0 exchange_rows=0 exchange_bytes=0 "
            "tasks_retried=0 tasks_failed=0 cache=miss "
            "cache_lookup=0ms cache_deltas=0 projection=0ms decode=0ms "
            "matrix_builds=0 matrix_reuses=0 sfs_skipped=0 sfs_stops=0 "
            "rows_served=0 bytes_served=0");
}

}  // namespace
}  // namespace sparkline
