// Ablation of the skyline-specific optimizer rules (paper section 5.4 and
// docs/ARCHITECTURE.md, "`src/optimizer` — rule-based rewriting"):
// single-dimension rewrite, skyline-through-join pushdown, and filter
// pushdown, each toggled off individually, plus the section-7 extensions.
//
// Each cell runs both sides once untimed (a warm-up), then kTimedRuns
// rounds that alternate which side goes first, and prints each side's
// median simulated time: a single cold run, one side always first, lets
// order and noise decide sub-millisecond cells.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/string_util.h"

using namespace sparkline;        // NOLINT
using namespace sparkline::bench; // NOLINT

namespace {

constexpr int kTimedRuns = 5;

/// One side of a cell: runs the query under that side's configuration and
/// restores the session afterwards.
using Side = std::function<Cell()>;

/// The side that sets `key` to `value` for one run of `sql`, then back to
/// `restore`.
Side Toggle(Session* session, const std::string& sql, const BenchConfig& config,
            const std::string& strategy, int executors, const std::string& key,
            const std::string& value, const std::string& restore) {
  return [=]() {
    SL_CHECK_OK(session->SetConf(key, value));
    Cell cell = RunCell(session, sql, strategy, executors, config);
    SL_CHECK_OK(session->SetConf(key, restore));
    return cell;
  };
}

/// A side's timed runs, summarized: the median simulated time and the
/// first run's deterministic fields (dominance tests, result rows).
struct Summary {
  Cell first;
  std::vector<double> simulated_ms;
  bool failed = false;

  void Add(const Cell& cell) {
    if (simulated_ms.empty()) first = cell;
    failed |= cell.timeout || cell.error;
    simulated_ms.push_back(cell.simulated_ms);
  }
  double MedianMs() const {
    std::vector<double> sorted = simulated_ms;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }
  std::string Format() const {
    if (first.timeout) return "t.o.";
    if (failed) return "err";
    return StrCat(FormatFixed(MedianMs(), 3), " ms (", first.dominance_tests,
                  " dominance tests)");
  }
};

/// Runs one cell (see the file comment) and prints both medians; aborts if
/// the two sides return different results.
void Compare(const char* name, const char* a_name, const Side& a,
             const char* b_name, const Side& b) {
  const Side* sides[2] = {&a, &b};
  Summary summary[2];
  const Cell warm_a = a();
  const Cell warm_b = b();
  for (int round = 0; round < kTimedRuns; ++round) {
    for (int k = 0; k < 2; ++k) {
      const int side = (round + k) % 2;
      summary[side].Add((*sides[side])());
    }
  }
  std::printf("%-28s %s: %-34s %s: %s\n", name, a_name,
              summary[0].Format().c_str(), b_name,
              summary[1].Format().c_str());
  if (!summary[0].failed && !summary[1].failed && !warm_a.timeout &&
      !warm_a.error && !warm_b.timeout && !warm_b.error) {
    SL_CHECK(warm_a.result_rows == warm_b.result_rows &&
             summary[0].first.result_rows == summary[1].first.result_rows)
        << name << ": ablation changed the result!";
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  Session session;

  // Dataset 1: store_sales (single-dimension rewrite showcase).
  datagen::StoreSalesOptions sopts;
  sopts.num_rows = static_cast<size_t>(20000 * config.scale);
  SL_CHECK_OK(
      session.catalog()->RegisterTable(datagen::GenerateStoreSales(sopts)));

  // Dataset 2: listings with a declared FK to hosts (join pushdown
  // showcase): every listing has exactly one matching host.
  Schema hosts_schema({Field{"id", DataType::Int64(), false},
                       Field{"since", DataType::Int64(), false}});
  auto hosts = std::make_shared<Table>("hosts", hosts_schema);
  hosts->constraints().primary_key = {"id"};
  for (int i = 1; i <= 50; ++i) {
    SL_CHECK_OK(hosts->AppendRow({Value::Int64(i), Value::Int64(1990 + i)}));
  }
  SL_CHECK_OK(session.catalog()->RegisterTable(hosts));
  Schema listings_schema({Field{"id", DataType::Int64(), false},
                          Field{"price", DataType::Double(), false},
                          Field{"rating", DataType::Double(), false},
                          Field{"host", DataType::Int64(), false}});
  auto listings = std::make_shared<Table>("listings", listings_schema);
  listings->constraints().foreign_keys.push_back(
      TableConstraints::ForeignKey{{"host"}, "hosts", {"id"}, true});
  Rng rng(7);
  const size_t n_listings = static_cast<size_t>(12000 * config.scale);
  for (size_t i = 0; i < n_listings; ++i) {
    SL_CHECK_OK(listings->AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                     Value::Double(rng.Uniform(20, 900)),
                                     Value::Double(rng.Uniform(1, 5)),
                                     Value::Int64(rng.UniformInt(1, 50))}));
  }
  SL_CHECK_OK(session.catalog()->RegisterTable(listings));

  std::printf(
      "== Ablation of skyline-specific optimizations (section 5.4) ==\n");
  std::printf("(median simulated time of %d runs per side, alternating which "
              "side goes first, after one warm-up each)\n\n",
              kTimedRuns);

  // One rule toggled on and off for `sql` (auto strategy, 4 executors).
  auto rule = [&](const char* name, const std::string& sql,
                  const std::string& key) {
    Compare(name, "on",
            Toggle(&session, sql, config, "auto", 4, key, "true", "true"),
            "off",
            Toggle(&session, sql, config, "auto", 4, key, "false", "true"));
  };

  // 1. Single-dimension rewrite: O(n) scalar lookup vs. full BNL skyline.
  rule("single-dim rewrite",
       "SELECT * FROM store_sales SKYLINE OF ss_wholesale_cost MIN",
       "sparkline.optimizer.singleDimRewrite");

  // 2. Skyline-through-join pushdown: skyline before vs. after the join.
  rule("skyline-join pushdown",
       "SELECT l.price, l.rating, h.since FROM listings l "
       "JOIN hosts h ON l.host = h.id "
       "SKYLINE OF l.price MIN, l.rating MAX",
       "sparkline.optimizer.skylineJoinPushdown");

  // 3. Generic filter pushdown under a skyline-bearing query.
  rule("filter pushdown",
       "SELECT * FROM (SELECT * FROM store_sales) t "
       "WHERE ss_quantity > 50 "
       "SKYLINE OF ss_wholesale_cost MIN, ss_list_price MIN, "
       "ss_ext_discount_amt MAX",
       "sparkline.optimizer.filterPushdown");

  // 4. Section-7 future-work features on anti-correlated data (the hard
  // case: skylines are large).
  SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "anti", static_cast<size_t>(8000 * config.scale), 4,
      datagen::PointDistribution::kAntiCorrelated, 99)));
  const std::string anti_sql =
      "SELECT * FROM anti SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN";
  Compare("kernel", "bnl",
          Toggle(&session, anti_sql, config, "distributed", 4,
                 "sparkline.skyline.kernel", "bnl", "bnl"),
          "sfs",
          Toggle(&session, anti_sql, config, "distributed", 4,
                 "sparkline.skyline.kernel", "sfs", "bnl"));
  Compare("partitioning", "asis",
          Toggle(&session, anti_sql, config, "distributed", 8,
                 "sparkline.skyline.partitioning", "asis", "asis"),
          "angle",
          Toggle(&session, anti_sql, config, "distributed", 8,
                 "sparkline.skyline.partitioning", "angle", "asis"));

  SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "tiny", 200, 2, datagen::PointDistribution::kIndependent, 3)));
  const std::string tiny_sql = "SELECT * FROM tiny SKYLINE OF d0 MIN, d1 MIN";
  Compare("cost-based tiny-input", "on",
          Toggle(&session, tiny_sql, config, "auto", 8,
                 "sparkline.skyline.nonDistributedThreshold", "1000", "0"),
          "off",
          Toggle(&session, tiny_sql, config, "auto", 8,
                 "sparkline.skyline.nonDistributedThreshold", "0", "0"));

  std::printf(
      "\nEach rule may only improve time/dominance tests, never change the\n"
      "result (checked above).\n");
  return 0;
}
