// SaLSa-style early termination: SFS stop points.
//
// Every SFS pass maintains the SaLSa stop bound minC — the smallest
// max-coordinate over the skyline points seen — and terminates as soon as
// every remaining tuple is provably strictly dominated. In a distributed
// plan those passes are the local ones: each local skyline reaches the
// global stage as a skyline part, whichever kernel found it, and the
// global [merge] validates the parts against each other.
//
// This bench quantifies the effect on SFS, which presorts by the sum of the
// normalized keys, next to BNL, which never stops early, across the paper's
// workload spectrum:
//   correlated      stop points fire almost immediately (small skylines)
//   anti-correlated the skyline-heavy adversarial case: stops rarely fire,
//                   quantifying the overhead of maintaining the bound
//   store_sales     the paper's TPC-DS-derived mixed-goal workload
//
// Reported per configuration:
//   total      simulated critical-path ms for the whole query
//   sky_ms     summed critical-path ms of the Local/GlobalSkyline stages
//   dom_tests  dominance tests across all stages
//   merge      of those, the global stage's
//   skipped    rows never scanned thanks to stop points (+ stop count)
//   frac       skipped / table rows (the local passes see each row once)
//
// Every SFS result is checked row-for-row (as a multiset) against BNL's,
// and its merge dominance tests against BNL's: both kernels gather their
// local skylines as skyline parts in SFS order, so the global stage does
// the same work after either. --smoke runs a scaled-down sweep and also
// asserts that SFS on the correlated table stops at least once and skips
// >30% of it, so CI keeps this binary and the counters from bit-rotting
// between perf PRs.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/string_util.h"

using namespace sparkline;        // NOLINT
using namespace sparkline::bench; // NOLINT

namespace {

struct StopCell {
  double total_ms = 0;
  double sky_ms = 0;
  int64_t dominance_tests = 0;
  int64_t merge_dominance_tests = 0;
  int64_t rows_skipped = 0;
  int64_t stops = 0;
  std::vector<std::string> rows;  ///< sorted, for multiset comparison
};

StopCell RunOnce(Session* session, const std::string& sql, const char* kernel) {
  SL_CHECK_OK(session->SetConf("sparkline.skyline.kernel", kernel));
  auto df = session->Sql(sql);
  SL_CHECK(df.ok()) << df.status().ToString();
  SL_CHECK(df->Collect().ok());  // warm-up
  auto result = df->Collect();
  SL_CHECK(result.ok()) << result.status().ToString();

  StopCell cell;
  const QueryMetrics& m = result->metrics;
  cell.total_ms = m.simulated_ms;
  for (const auto& [label, ms] : m.operator_ms) {
    if (label.find("Skyline") != std::string::npos) cell.sky_ms += ms;
  }
  cell.dominance_tests = m.dominance_tests;
  cell.merge_dominance_tests = m.merge_dominance_tests;
  cell.rows_skipped = m.sfs_rows_skipped;
  cell.stops = m.sfs_early_stops;
  for (const auto& row : result->rows()) cell.rows.push_back(RowToString(row));
  std::sort(cell.rows.begin(), cell.rows.end());
  return cell;
}

void Sweep(Session* session, const char* title, const std::string& sql,
           size_t table_rows, bool smoke) {
  std::printf("\n%s (%zu rows) | strategy: distributed, 8 executors\n",
              title, table_rows);
  std::printf("%-10s %10s %10s %12s %12s %16s %7s\n", "kernel", "total_ms",
              "sky_ms", "dom_tests", "merge", "skipped(stops)", "frac");
  auto print = [&](const char* name, const StopCell& cell) {
    std::printf("%-10s %10.2f %10.2f %12lld %12lld %10lld (%3lld) %6.1f%%\n",
                name, cell.total_ms, cell.sky_ms,
                static_cast<long long>(cell.dominance_tests),
                static_cast<long long>(cell.merge_dominance_tests),
                static_cast<long long>(cell.rows_skipped),
                static_cast<long long>(cell.stops),
                100.0 * static_cast<double>(cell.rows_skipped) /
                    static_cast<double>(table_rows));
  };
  const StopCell bnl = RunOnce(session, sql, "bnl");
  print("bnl", bnl);
  const StopCell sfs = RunOnce(session, sql, "sfs");
  print("sfs sum", sfs);
  SL_CHECK(sfs.rows == bnl.rows)
      << "SFS disagrees with BNL on " << title << ": " << sfs.rows.size()
      << " vs " << bnl.rows.size() << " rows";
  SL_CHECK(sfs.merge_dominance_tests == bnl.merge_dominance_tests)
      << "SFS ran " << sfs.merge_dominance_tests << " merge dominance tests on "
      << title << ", BNL " << bnl.merge_dominance_tests;
  if (smoke && std::strstr(title, "correlated") == title) {
    // The acceptance bar: the minC stop must terminate >30% of a correlated
    // table away, with the counters proving it.
    SL_CHECK(sfs.stops >= 1) << "no SFS pass terminated early";
    SL_CHECK(sfs.rows_skipped * 10 > static_cast<int64_t>(table_rows) * 3)
        << "SFS stop point skipped only " << sfs.rows_skipped << " of "
        << table_rows << " correlated rows";
  }
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

  Session session;
  SL_CHECK_OK(session.SetConf("sparkline.timeout_ms",
                              std::to_string(config.timeout_ms)));
  SL_CHECK_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  SL_CHECK_OK(session.SetConf("sparkline.executors", "8"));

  const size_t points = static_cast<size_t>(40000 * config.scale);
  SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "correlated", points, 4, datagen::PointDistribution::kCorrelated, 42)));
  SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "anticorrelated", points, 4,
      datagen::PointDistribution::kAntiCorrelated, 42)));
  datagen::StoreSalesOptions sopts;
  sopts.num_rows = static_cast<size_t>(20000 * config.scale);
  SL_CHECK_OK(
      session.catalog()->RegisterTable(datagen::GenerateStoreSales(sopts)));

  const std::string point_dims = "d0 MIN, d1 MIN, d2 MIN, d3 MIN";
  Sweep(&session, "correlated",
        StrCat("SELECT * FROM correlated SKYLINE OF ", point_dims), points,
        smoke);
  Sweep(&session, "anticorrelated",
        StrCat("SELECT * FROM anticorrelated SKYLINE OF ", point_dims), points,
        smoke);
  Sweep(&session, "store_sales",
        SkylineSql("store_sales", StoreSalesDimensions(), 6, true),
        sopts.num_rows, smoke);
  if (smoke) std::printf("\nsmoke checks passed\n");
  return 0;
}
