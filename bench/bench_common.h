// Shared harness for the paper-reproduction benchmarks.
//
// Each fig*_ binary regenerates one figure/table family of the paper's
// evaluation (section 6 + appendices C-E): it sweeps the same parameter,
// runs the same four algorithms ("distributed complete", "non-distributed
// complete", "distributed incomplete", "reference" -- section 6.3) and
// prints Appendix-D style tables: absolute times, then percentages relative
// to the reference algorithm, with "t.o." for timeouts and "n.a." when the
// reference itself timed out.
//
// Times are the *simulated cluster* times (critical-path model, see
// docs/ARCHITECTURE.md, "`src/exec` — physical planning and execution");
// datasets are scaled-down versions of the paper's (pass --scale=N to grow
// them).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "api/dataframe.h"
#include "api/session.h"
#include "datagen/datagen.h"

namespace sparkline {
namespace bench {

/// Command-line configuration shared by all bench binaries.
struct BenchConfig {
  /// Multiplies every dataset size (1.0 = defaults that finish in ~1 min).
  double scale = 1.0;
  /// Per-query timeout, reproducing the paper's 3600 s cap.
  int64_t timeout_ms = 20000;
  /// Also run the appendix parameter grids (Figures 11-15 style).
  bool grid = false;
  /// Simulated per-executor memory overhead (MB).
  int64_t executor_overhead_mb = 64;
  /// When non-empty: dump the process-wide metrics-registry JSON snapshot
  /// to this path when the binary finishes (--json=PATH / --json PATH).
  std::string json_path;
};

BenchConfig ParseArgs(int argc, char** argv);

/// Writes MetricsRegistry::Global().JsonSnapshot() to config.json_path
/// (no-op when the flag was not given). Called by benches at exit so runs
/// leave a machine-readable counter/histogram trajectory next to the tables.
void MaybeDumpMetricsJson(const BenchConfig& config);

/// One of the four algorithms of paper section 6.3.
struct Algorithm {
  const char* display_name;  ///< as in the paper's legends
  const char* strategy;      ///< sparkline.skyline.strategy value
};

/// The four complete-data algorithms (in the paper's legend order).
const std::vector<Algorithm>& CompleteAlgorithms();
/// The two algorithms applicable to incomplete data.
const std::vector<Algorithm>& IncompleteAlgorithms();

/// Outcome of a single (algorithm, sweep point) cell.
struct Cell {
  bool timeout = false;
  bool error = false;
  double simulated_ms = 0;
  double wall_ms = 0;
  int64_t peak_memory_mb = 0;
  int64_t dominance_tests = 0;
  size_t result_rows = 0;
};

/// Runs one query under one algorithm/executor configuration.
Cell RunCell(Session* session, const std::string& sql,
             const std::string& strategy, int executors,
             const BenchConfig& config);

/// Prints an Appendix-D style pair of tables (absolute + relative-%).
/// `rows` is indexed [algorithm][sweep point]; `reference_row` indexes the
/// row percentages are computed against (-1: no relative table).
void PrintTables(const std::string& title,
                 const std::vector<std::string>& algorithm_names,
                 const std::vector<std::string>& sweep_labels,
                 const std::vector<std::vector<Cell>>& rows,
                 int reference_row, const char* value = "time");

/// Builds "SELECT <cols> FROM <table> SKYLINE OF [COMPLETE] d1 g1, ..." for
/// the first `dims` entries of `dimensions` ("col GOAL" strings).
std::string SkylineSql(const std::string& table,
                       const std::vector<std::string>& dimensions, size_t dims,
                       bool complete);

/// Builds the Listing-4 plain-SQL rewriting for the same query. (The
/// harness runs the reference via the optimizer rewrite — strategy
/// "reference" — which produces exactly this plan; this helper exists for
/// printing and cross-checking.)
std::string ReferenceSql(const std::string& table,
                         const std::vector<std::string>& dimensions,
                         size_t dims);

/// The six Airbnb skyline dimensions of paper Table 1, in order.
const std::vector<std::string>& AirbnbDimensions();
/// The six store_sales skyline dimensions of paper Table 2, in order.
const std::vector<std::string>& StoreSalesDimensions();

}  // namespace bench
}  // namespace sparkline
