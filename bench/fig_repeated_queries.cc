// Repeated-query serving workload (serve layer, not a paper figure):
// a Zipf-skewed stream over 50 distinct skyline queries against store_sales
// and airbnb, replayed through the QueryService at 1/4/8 service threads
// with the fingerprinted result cache off vs. on.
//
// Reported per configuration: p50/p99 client-observed latency, throughput,
// and the cache hit rate. The paper's dashboards re-run identical SKYLINE OF
// clauses over static tables; this is the workload where result caching
// should collapse p50 by >=10x (every Zipf head query after the first is a
// hash probe + shared-snapshot alias instead of a full skyline).
//
// A second sweep mixes InsertInto into the stream (0/1/10/30% of ops) with
// incremental maintenance off vs. on: off runs with
// sparkline.cache.max_delta_batch=0, so every write invalidates (counted as
// fallbacks); on keeps the default batch limit, so cached skylines evolve
// by delta and keep serving hits. `--smoke` runs a reduced write-mix sweep and
// asserts the contract: zero errors, cached answers multiset-identical to a
// fresh-execution oracle, and >0 delta-maintained hits at the 10% mix.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "serve/query_service.h"

using namespace sparkline;         // NOLINT
using namespace sparkline::bench;  // NOLINT

namespace {

/// 25 distinct queries per table: sweep 2..6 dimensions x 5 filter
/// variants. The filters keep every row (thresholds far above the data) —
/// they exist to give each variant a distinct fingerprint while the
/// skyline work stays comparable.
std::vector<std::string> BuildQueries(const std::string& table,
                                      const std::vector<std::string>& dims) {
  std::vector<std::string> queries;
  for (int variant = 0; variant < 5; ++variant) {
    for (size_t d = 2; d <= 6; ++d) {
      const std::string filter_col =
          dims[0].substr(0, dims[0].find(' '));
      std::string sql = StrCat(
          "SELECT * FROM ", table, " WHERE ", filter_col, " < ",
          1000000 + variant, " SKYLINE OF ");
      for (size_t i = 0; i < d; ++i) {
        if (i > 0) sql += ", ";
        sql += dims[i];
      }
      queries.push_back(std::move(sql));
    }
  }
  return queries;
}

struct ConfigResult {
  double p50_ms = 0;
  double p99_ms = 0;
  double qps = 0;
  double hit_rate = 0;
  size_t errors = 0;
};

ConfigResult RunConfig(const std::vector<std::string>& queries,
                       const std::vector<TablePtr>& tables, bool cache_on,
                       int threads, size_t total_samples) {
  Session session;
  SL_CHECK_OK(session.SetConf("sparkline.executors", "2"));
  SL_CHECK_OK(
      session.SetConf("sparkline.cache.enabled", cache_on ? "true" : "false"));
  SL_CHECK_OK(session.SetConf("sparkline.serve.max_concurrent",
                              std::to_string(threads)));
  for (const auto& table : tables) {
    SL_CHECK_OK(session.catalog()->RegisterTable(table));
  }
  serve::QueryService* service = session.service();

  const ZipfDistribution zipf(static_cast<int64_t>(queries.size()), 1.1);
  const size_t per_thread = total_samples / static_cast<size_t>(threads);

  std::vector<std::vector<double>> latencies(threads);
  std::vector<size_t> errors(threads, 0);
  StopWatch region;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t]() {
      Rng rng(0x5eed + static_cast<uint64_t>(t));
      latencies[t].reserve(per_thread);
      for (size_t i = 0; i < per_thread; ++i) {
        const size_t q =
            static_cast<size_t>(zipf.Sample(&rng) - 1) % queries.size();
        StopWatch sw;
        auto result = service->Execute(queries[q]);
        // Synchronous clients stay within the admission window, but retry
        // once for robustness if the cap is ever hit.
        if (!result.ok() &&
            result.status().code() == StatusCode::kUnavailable) {
          result = service->Execute(queries[q]);
        }
        if (!result.ok()) {
          ++errors[t];
          continue;
        }
        latencies[t].push_back(sw.ElapsedMillis());
      }
    });
  }
  for (auto& c : clients) c.join();
  const double region_ms = region.ElapsedMillis();

  std::vector<double> all;
  for (const auto& per : latencies) all.insert(all.end(), per.begin(), per.end());
  std::sort(all.begin(), all.end());

  ConfigResult out;
  if (!all.empty()) {
    out.p50_ms = all[all.size() / 2];
    out.p99_ms = all[std::min(all.size() - 1, all.size() * 99 / 100)];
    out.qps = 1000.0 * static_cast<double>(all.size()) / region_ms;
  }
  const auto stats = session.cache()->stats();
  const int64_t probes = stats.hits + stats.misses;
  out.hit_rate =
      probes == 0 ? 0.0
                  : static_cast<double>(stats.hits) /
                        static_cast<double>(probes);
  for (size_t e : errors) out.errors += e;
  return out;
}

// --- write-mix sweep -------------------------------------------------------

std::vector<std::string> SortedRowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

/// Deep copy, so registering the snapshot in the oracle catalog re-stamps
/// the copy's version instead of the bench session's shared Table object.
TablePtr CopySnapshot(const TablePtr& src) {
  auto copy = std::make_shared<Table>(src->name(), src->schema());
  for (const Row& row : src->rows()) copy->AppendRowUnchecked(row);
  return copy;
}

/// Four distinct maintainable skylines over the writable table.
std::vector<std::string> WriteMixQueries() {
  std::vector<std::string> queries;
  for (int variant = 0; variant < 4; ++variant) {
    queries.push_back(StrCat(
        "SELECT * FROM wpts WHERE d0 < ", 1000000 + variant,
        " SKYLINE OF d0 MIN, d1 MAX", variant % 2 == 0 ? ", d2 MIN" : ""));
  }
  return queries;
}

struct WriteMixResult {
  double p50_ms = 0;
  double hit_rate = 0;
  int64_t delta_hits = 0;   ///< hits served from a delta-maintained entry
  int64_t maintained = 0;   ///< maintainer stats over the whole run
  int64_t fallbacks = 0;
  size_t errors = 0;
};

WriteMixResult RunWriteMix(const std::vector<std::string>& queries,
                           size_t base_rows, int insert_pct, bool incremental,
                           size_t ops, bool smoke) {
  Session session;
  SL_CHECK_OK(session.SetConf("sparkline.executors", "2"));
  SL_CHECK_OK(session.SetConf("sparkline.cache.enabled", "true"));
  if (!incremental) {
    SL_CHECK_OK(session.SetConf("sparkline.cache.max_delta_batch", "0"));
  }
  SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "wpts", base_rows, 3, datagen::PointDistribution::kAntiCorrelated, 77)));

  // Same seed for incremental off and on at a given mix: both replay the
  // identical op schedule, so the hit-rate delta is pure policy.
  Rng rng(0xfeedULL + static_cast<uint64_t>(insert_pct));
  int64_t next_id = 10 * 1000 * 1000;
  std::vector<double> latencies;
  int64_t hits = 0;
  int64_t probes = 0;
  WriteMixResult out;
  for (size_t op = 0; op < ops; ++op) {
    if (rng.UniformInt(0, 99) < insert_pct) {
      std::vector<Row> batch;
      const int64_t n = rng.UniformInt(1, 4);
      for (int64_t j = 0; j < n; ++j) {
        batch.push_back({Value::Int64(next_id++),
                         Value::Double(rng.Uniform(0.0, 1.0)),
                         Value::Double(rng.Uniform(0.0, 1.0)),
                         Value::Double(rng.Uniform(0.0, 1.0))});
      }
      SL_CHECK_OK(session.catalog()->InsertInto("wpts", batch));
      // Flush maintenance before the next op, so hit rates measure the
      // maintenance policy rather than notifier-thread timing.
      session.catalog()->DrainWrites();
    } else {
      const std::string& sql = queries[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(queries.size()) - 1))];
      StopWatch sw;
      auto df = session.Sql(sql);
      if (!df.ok()) {
        ++out.errors;
        continue;
      }
      auto result = df->Collect();
      if (!result.ok()) {
        ++out.errors;
        continue;
      }
      latencies.push_back(sw.ElapsedMillis());
      ++probes;
      if (result->metrics.cache_hit) {
        ++hits;
        if (result->metrics.cache_delta_maintained > 0) ++out.delta_hits;
      }
    }
  }

  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) out.p50_ms = latencies[latencies.size() / 2];
  out.hit_rate = probes == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(probes);
  const auto stats = session.maintainer()->stats();
  out.maintained = stats.maintained;
  out.fallbacks = stats.fallbacks;

  if (smoke) {
    // Parity: every cached answer over the final snapshot must equal a
    // fresh-execution oracle (throwaway session, cache off).
    TablePtr snapshot = session.catalog()->GetTable("wpts").MoveValue();
    Session oracle;
    oracle.catalog()->RegisterOrReplaceTable(CopySnapshot(snapshot));
    for (const std::string& sql : queries) {
      auto live = session.Sql(sql);
      SL_CHECK(live.ok()) << live.status().ToString();
      auto live_result = live->Collect();
      SL_CHECK(live_result.ok()) << live_result.status().ToString();
      auto fresh = oracle.Sql(sql);
      SL_CHECK(fresh.ok()) << fresh.status().ToString();
      auto fresh_result = fresh->Collect();
      SL_CHECK(fresh_result.ok()) << fresh_result.status().ToString();
      SL_CHECK(SortedRowStrings(live_result->rows()) ==
               SortedRowStrings(fresh_result->rows()))
          << "cached result diverged from fresh execution for " << sql;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  BenchConfig config = ParseArgs(static_cast<int>(args.size()), args.data());
  if (smoke) config.scale = std::min(config.scale, 0.15);

  datagen::StoreSalesOptions store_opts;
  store_opts.num_rows = static_cast<size_t>(8000 * config.scale);
  TablePtr store = datagen::GenerateStoreSales(store_opts);
  datagen::AirbnbOptions airbnb_opts;
  airbnb_opts.num_rows = static_cast<size_t>(6000 * config.scale);
  airbnb_opts.table_name = "airbnb";
  TablePtr airbnb = datagen::GenerateAirbnb(airbnb_opts);
  std::printf("repeated-query workload: store_sales=%zu airbnb=%zu tuples\n",
              store->num_rows(), airbnb->num_rows());

  std::vector<std::string> queries =
      BuildQueries("store_sales", StoreSalesDimensions());
  for (auto& q : BuildQueries("airbnb", AirbnbDimensions())) {
    queries.push_back(std::move(q));
  }
  std::printf("distinct queries: %zu (Zipf s=1.1)\n\n", queries.size());

  if (!smoke) {
    const size_t total_samples = static_cast<size_t>(480 * config.scale);
    std::printf("%-8s %-6s %10s %10s %10s %8s %7s\n", "threads", "cache",
                "p50(ms)", "p99(ms)", "qps", "hit%", "errors");
    for (int threads : {1, 4, 8}) {
      for (bool cache_on : {false, true}) {
        ConfigResult r = RunConfig(queries, {store, airbnb}, cache_on, threads,
                                   total_samples);
        std::printf("%-8d %-6s %10.3f %10.3f %10.1f %7.1f%% %7zu\n", threads,
                    cache_on ? "on" : "off", r.p50_ms, r.p99_ms, r.qps,
                    100.0 * r.hit_rate, r.errors);
      }
    }
  }

  // Write-mix sweep: the same cached stream with InsertInto mixed in.
  const size_t mix_rows =
      std::max<size_t>(200, static_cast<size_t>(3000 * config.scale));
  const size_t mix_ops =
      std::max<size_t>(160, static_cast<size_t>(400 * config.scale));
  const std::vector<std::string> mix_queries = WriteMixQueries();
  std::printf("\nwrite-mix sweep: wpts=%zu tuples, %zu ops, %zu queries\n",
              mix_rows, mix_ops, mix_queries.size());
  std::printf("%-8s %-6s %10s %8s %11s %11s %10s %7s\n", "insert%", "incr",
              "p50(ms)", "hit%", "delta-hits", "maintained", "fallbacks",
              "errors");
  for (int insert_pct : {0, 1, 10, 30}) {
    WriteMixResult off_result;
    for (bool incremental : {false, true}) {
      WriteMixResult r = RunWriteMix(mix_queries, mix_rows, insert_pct,
                                     incremental, mix_ops, smoke);
      std::printf("%-8d %-6s %10.3f %7.1f%% %11lld %11lld %10lld %7zu\n",
                  insert_pct, incremental ? "on" : "off", r.p50_ms,
                  100.0 * r.hit_rate, static_cast<long long>(r.delta_hits),
                  static_cast<long long>(r.maintained),
                  static_cast<long long>(r.fallbacks), r.errors);
      if (smoke) {
        SL_CHECK(r.errors == 0) << "write-mix queries failed";
        if (!incremental) {
          SL_CHECK(r.maintained == 0 && r.delta_hits == 0)
              << "maintenance ran with sparkline.cache.max_delta_batch=0";
          off_result = r;
        } else {
          // Identical op schedule (same seed): maintenance can only keep
          // entries alive that invalidation would have dropped.
          SL_CHECK(r.hit_rate >= off_result.hit_rate - 1e-9)
              << "incremental maintenance lowered the hit rate";
          if (insert_pct == 10) {
            SL_CHECK(r.delta_hits > 0)
                << "no delta-maintained hits at the 10% insert mix";
            SL_CHECK(r.maintained > 0) << "no cache entries were maintained";
          }
        }
      }
    }
  }
  if (smoke) std::printf("\nsmoke checks passed\n");
  MaybeDumpMetricsJson(config);
  return 0;
}
