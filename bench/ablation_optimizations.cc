// Ablation of the skyline knobs that remain (paper section 7 future work):
// the kernel (BNL vs. SFS) and the local-stage partitioning (as-is vs.
// angle), each on anti-correlated points, where skylines are large.
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

  std::printf("== Ablation of the skyline kernel and partitioning ==\n");
  std::printf("(median simulated time of %d runs per side, alternating which "
              "side goes first, after one warm-up each)\n\n",
              kTimedRuns);

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

  std::printf(
      "\nEach knob may only change time and dominance tests, never the\n"
      "result (checked above).\n");
  return 0;
}
