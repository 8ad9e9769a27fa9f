// Reproduces paper Figures 8, 9 and 10 (Appendix C): peak memory
// consumption vs. executors (Airbnb and store_sales) and vs. input size
// (store_sales at 3/5/10 executors), 6 skyline dimensions.
//
// Paper shapes to look for:
//  * memory grows with the executor count (every executor loads its
//    execution environment) and with the number of tuples;
//  * the four algorithms consume comparable memory; the specialized
//    algorithms' speedup is not bought with memory.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"
#include "skyline/columnar.h"

using namespace sparkline;        // NOLINT
using namespace sparkline::bench; // NOLINT

namespace {

const int kExecutorSteps[] = {1, 2, 3, 5, 10};

void ExecutorsVsMemory(Session* session, const std::string& table,
                       bool complete_data,
                       const std::vector<std::string>& dimensions,
                       size_t num_tuples, const BenchConfig& config,
                       const char* figure) {
  const auto& algorithms =
      complete_data ? CompleteAlgorithms() : IncompleteAlgorithms();
  std::vector<std::string> labels;
  for (int e : kExecutorSteps) labels.push_back(std::to_string(e));
  std::vector<std::string> names;
  std::vector<std::vector<Cell>> rows;
  for (const auto& algo : algorithms) {
    names.push_back(algo.display_name);
    std::vector<Cell> row;
    for (int executors : kExecutorSteps) {
      row.push_back(RunCell(session,
                            SkylineSql(table, dimensions, 6, complete_data),
                            algo.strategy, executors, config));
    }
    rows.push_back(std::move(row));
  }
  PrintTables(StrCat(figure, " | executors vs peak memory | dataset: ", table,
                     " (", num_tuples, " tuples) | dims: 6"),
              names, labels, rows, static_cast<int>(names.size()) - 1,
              "memory");
}

// Kernel key storage is charged to the query's MemoryTracker. A local task
// streams its partition: it holds one key block and its BNL window, and
// hands the exchange a compact matrix of its local skyline, which stays
// reserved while the gather concatenates it. So the query's peak tracked
// bytes (peak memory minus the fixed per-executor footprint) must cover
// both what the gather holds — the keys of every local skyline shipped —
// and what a local task holds — its first key block. Tasks need not
// overlap in time, so the blocks of different tasks are not summed.
void AssertKeyMemoryVisible(Session* session, const std::string& table,
                            const std::vector<std::string>& dimensions) {
  constexpr int kExecutors = 3;
  constexpr size_t kDims = 6;
  SL_CHECK_OK(
      session->SetConf("sparkline.executors", std::to_string(kExecutors)));
  SL_CHECK_OK(session->SetConf("sparkline.skyline.strategy", "distributed"));
  auto df = session->Sql(SkylineSql(table, dimensions, kDims, true));
  SL_CHECK(df.ok());
  auto r = df->Collect();
  SL_CHECK(r.ok()) << r.status().ToString();
  SL_CHECK_OK(session->SetConf("sparkline.skyline.strategy", "auto"));
  const int64_t tracked_peak =
      r->metrics.peak_memory_bytes -
      kExecutors * session->config().cluster.executor_overhead_bytes;

  const size_t rows = session->catalog()->GetTable(table).MoveValue()->num_rows();
  const size_t partition = (rows + kExecutors - 1) / kExecutors;
  const int64_t block_bytes = static_cast<int64_t>(
      std::min(partition, skyline::kKeyBlockRows) * kDims * sizeof(double));
  const int64_t gathered_bytes = static_cast<int64_t>(
      r->metrics.exchange_rows_shipped * kDims * sizeof(double));
  SL_CHECK(tracked_peak >= gathered_bytes)
      << "local skyline keys are invisible to the MemoryTracker: tracked "
      << "peak " << tracked_peak << " B < gathered keys " << gathered_bytes
      << " B";
  SL_CHECK(tracked_peak >= block_bytes)
      << "the local key block is invisible to the MemoryTracker: tracked "
      << "peak " << tracked_peak << " B < one block " << block_bytes << " B";
  std::printf("key-memory check | %s | tracked peak %lld B >= gathered keys "
              "%lld B and one key block %lld B\n",
              table.c_str(), static_cast<long long>(tracked_peak),
              static_cast<long long>(gathered_bytes),
              static_cast<long long>(block_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  Session session;

  // Figure 8: Airbnb.
  datagen::AirbnbOptions aopts;
  aopts.num_rows = static_cast<size_t>(9000 * config.scale);
  aopts.incomplete = true;
  aopts.table_name = "airbnb_incomplete";
  auto incomplete = datagen::GenerateAirbnb(aopts);
  auto complete = datagen::CompleteSubset(*incomplete, "airbnb");
  SL_CHECK_OK(session.catalog()->RegisterTable(incomplete));
  SL_CHECK_OK(session.catalog()->RegisterTable(complete));
  AssertKeyMemoryVisible(&session, "airbnb", AirbnbDimensions());
  ExecutorsVsMemory(&session, "airbnb", true, AirbnbDimensions(),
                    complete->num_rows(), config, "Fig 8");
  ExecutorsVsMemory(&session, "airbnb_incomplete", false, AirbnbDimensions(),
                    incomplete->num_rows(), config, "Fig 8");

  // Figure 9: store_sales at the 5M scale.
  datagen::StoreSalesOptions sopts;
  sopts.num_rows = static_cast<size_t>(10000 * config.scale);
  sopts.table_name = "store_sales_5";
  SL_CHECK_OK(
      session.catalog()->RegisterTable(datagen::GenerateStoreSales(sopts)));
  sopts.incomplete = true;
  sopts.table_name = "store_sales_5_incomplete";
  SL_CHECK_OK(
      session.catalog()->RegisterTable(datagen::GenerateStoreSales(sopts)));
  ExecutorsVsMemory(&session, "store_sales_5", true, StoreSalesDimensions(),
                    sopts.num_rows, config, "Fig 9");
  ExecutorsVsMemory(&session, "store_sales_5_incomplete", false,
                    StoreSalesDimensions(), sopts.num_rows, config, "Fig 9");

  // Figure 10: tuples vs memory at 3 / 5 / 10 executors.
  const std::vector<size_t> sizes = {
      static_cast<size_t>(2000 * config.scale),
      static_cast<size_t>(4000 * config.scale),
      static_cast<size_t>(10000 * config.scale),
      static_cast<size_t>(20000 * config.scale)};
  for (size_t s = 0; s < sizes.size(); ++s) {
    datagen::StoreSalesOptions o;
    o.num_rows = sizes[s];
    o.table_name = StrCat("store_sales_n", s);
    SL_CHECK_OK(session.catalog()->RegisterTable(datagen::GenerateStoreSales(o)));
  }
  for (int executors : {3, 5, 10}) {
    std::vector<std::string> names;
    std::vector<std::string> labels;
    for (size_t n : sizes) labels.push_back(std::to_string(n));
    std::vector<std::vector<Cell>> rows(CompleteAlgorithms().size());
    for (const auto& algo : CompleteAlgorithms()) {
      names.push_back(algo.display_name);
    }
    for (size_t s = 0; s < sizes.size(); ++s) {
      for (size_t a = 0; a < CompleteAlgorithms().size(); ++a) {
        rows[a].push_back(RunCell(
            &session,
            SkylineSql(StrCat("store_sales_n", s), StoreSalesDimensions(), 6,
                       true),
            CompleteAlgorithms()[a].strategy, executors, config));
      }
    }
    PrintTables(StrCat("Fig 10 | tuples vs peak memory | store_sales | "
                       "dims: 6 | executors: ",
                       executors),
                names, labels, rows, static_cast<int>(names.size()) - 1,
                "memory");
  }
  return 0;
}
