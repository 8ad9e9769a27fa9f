// Micro benchmarks (google-benchmark) for the skyline kernels of paper
// sections 5.5-5.7: dominance tests, Block-Nested-Loop, Sort-Filter-Skyline
// (the paper's future-work presorting family), the all-pairs incomplete
// algorithm, null-bitmap partitioning and the DominanceMatrix projection
// itself (direct vs. ranked keys) — across the classic correlated /
// independent / anti-correlated workloads. The
// dominance-test-throughput counters report "the main cost factor of
// skyline computation" (paper section 2); BM_BruteForce times the
// quadratic reference oracle the tests compare against.
#include <cmath>

#include <benchmark/benchmark.h>

#include "datagen/datagen.h"
#include "skyline/columnar.h"

namespace sparkline {
namespace {

using datagen::PointDistribution;

std::vector<Row> MakeRows(size_t n, size_t dims, PointDistribution dist,
                          double null_rate = 0.0) {
  auto table = datagen::GeneratePoints("b", n, dims, dist, /*seed=*/42,
                                       null_rate);
  std::vector<Row> rows;
  rows.reserve(n);
  for (const RowRef r : table->rows()) {
    Row row;
    for (size_t c = 1; c < r.size(); ++c) row.push_back(r[c]);  // drop the id
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<skyline::BoundDimension> MinDims(size_t n) {
  std::vector<skyline::BoundDimension> dims;
  for (size_t i = 0; i < n; ++i) dims.push_back({i, SkylineGoal::kMin});
  return dims;
}

PointDistribution DistFromArg(int64_t arg) {
  switch (arg) {
    case 0:
      return PointDistribution::kCorrelated;
    case 1:
      return PointDistribution::kIndependent;
    default:
      return PointDistribution::kAntiCorrelated;
  }
}

void BM_DominanceTest(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2, dims, PointDistribution::kIndependent);
  auto bound = MinDims(dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(skyline::CompareRows(
        rows[0], rows[1], bound, skyline::NullSemantics::kComplete));
  }
}
BENCHMARK(BM_DominanceTest)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_DominanceTestIncomplete(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2, dims, PointDistribution::kIndependent, 0.3);
  auto bound = MinDims(dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(skyline::CompareRows(
        rows[0], rows[1], bound, skyline::NullSemantics::kIncomplete));
  }
}
BENCHMARK(BM_DominanceTestIncomplete)->Arg(2)->Arg(6);

// --- scalar vs. explicit-AVX2 compare ablation (ROADMAP: SIMD-accelerate
// CompareKeySpansComplete). A rotating buffer of key pairs defeats the
// branch predictor memorizing one outcome.
std::vector<double> MakeKeyBuffer(size_t pairs, size_t dims) {
  auto rows = MakeRows(2 * pairs, dims, PointDistribution::kAntiCorrelated);
  auto bound = MinDims(dims);
  auto matrix = skyline::DominanceMatrix::Build(rows, bound);
  std::vector<double> keys;
  keys.reserve(2 * pairs * dims);
  for (uint32_t r = 0; r < 2 * pairs; ++r) {
    const double* k = matrix->row_keys(r);
    keys.insert(keys.end(), k, k + dims);
  }
  return keys;
}

void BM_CompareKeySpansScalar(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  constexpr size_t kPairs = 256;
  const std::vector<double> keys = MakeKeyBuffer(kPairs, dims);
  size_t p = 0;
  for (auto _ : state) {
    const double* left = keys.data() + (2 * p) * dims;
    const double* right = keys.data() + (2 * p + 1) * dims;
    benchmark::DoNotOptimize(
        skyline::CompareKeySpansCompleteScalar(left, right, dims));
    p = (p + 1) % kPairs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareKeySpansScalar)->Arg(4)->Arg(6)->Arg(8)->Arg(16);

#if SPARKLINE_HAVE_AVX2_COMPARE
void BM_CompareKeySpansAvx2(benchmark::State& state) {
  if (!skyline::simd::Avx2Available()) {
    state.SkipWithError("CPU lacks AVX2");
    return;
  }
  const size_t dims = static_cast<size_t>(state.range(0));
  constexpr size_t kPairs = 256;
  const std::vector<double> keys = MakeKeyBuffer(kPairs, dims);
  size_t p = 0;
  for (auto _ : state) {
    const double* left = keys.data() + (2 * p) * dims;
    const double* right = keys.data() + (2 * p + 1) * dims;
    benchmark::DoNotOptimize(
        skyline::simd::CompareKeySpansCompleteAvx2(left, right, dims));
    p = (p + 1) % kPairs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareKeySpansAvx2)->Arg(4)->Arg(6)->Arg(8)->Arg(16);
#endif

void BM_CompareKeySpansDispatch(benchmark::State& state) {
  // The production entry point: runtime dispatch included.
  const size_t dims = static_cast<size_t>(state.range(0));
  constexpr size_t kPairs = 256;
  const std::vector<double> keys = MakeKeyBuffer(kPairs, dims);
  size_t p = 0;
  for (auto _ : state) {
    const double* left = keys.data() + (2 * p) * dims;
    const double* right = keys.data() + (2 * p + 1) * dims;
    benchmark::DoNotOptimize(
        skyline::CompareKeySpansComplete(left, right, dims));
    p = (p + 1) % kPairs;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompareKeySpansDispatch)->Arg(4)->Arg(6)->Arg(8)->Arg(16);

void BM_ColumnarDominanceTest(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  auto rows = MakeRows(2, dims, PointDistribution::kIndependent);
  auto bound = MinDims(dims);
  auto matrix = skyline::DominanceMatrix::Build(rows, bound);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matrix->Compare(0, 1, skyline::NullSemantics::kComplete));
  }
}
BENCHMARK(BM_ColumnarDominanceTest)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

/// The six store_sales skyline dimensions of paper Table 2 (ordinals into
/// the generated table's rows).
std::vector<skyline::BoundDimension> StoreSalesDims() {
  return {{2, SkylineGoal::kMax}, {3, SkylineGoal::kMin},
          {4, SkylineGoal::kMin}, {5, SkylineGoal::kMin},
          {6, SkylineGoal::kMax}, {7, SkylineGoal::kMin}};
}

std::vector<Row> MakeStoreSales(size_t n) {
  datagen::StoreSalesOptions opts;
  opts.num_rows = n;
  auto table = datagen::GenerateStoreSales(opts);
  return table->rows();
}

/// Reports dominance tests per second — "the main cost factor of skyline
/// computation" (paper section 2) — alongside wall time.
void SetThroughput(benchmark::State& state, const skyline::DominanceCounter& c,
                   int64_t rows) {
  state.counters["dom_tests/s"] = benchmark::Counter(
      static_cast<double>(c.tests.load()), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_ColumnarBnlStoreSales(benchmark::State& state) {
  auto rows = MakeStoreSales(static_cast<size_t>(state.range(0)));
  auto dims = StoreSalesDims();
  skyline::DominanceCounter counter;
  skyline::SkylineOptions opts;
  opts.counter = &counter;
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::SkylineKernel::kBlockNestedLoop, rows, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  SetThroughput(state, counter, state.range(0));
}
BENCHMARK(BM_ColumnarBnlStoreSales)->Arg(5000)->Arg(20000);

void BM_ColumnarBlockNestedLoop(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       DistFromArg(state.range(1)));
  auto dims = MinDims(4);
  skyline::DominanceCounter counter;
  skyline::SkylineOptions opts;
  opts.counter = &counter;
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::SkylineKernel::kBlockNestedLoop, rows, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  SetThroughput(state, counter, state.range(0));
}
BENCHMARK(BM_ColumnarBlockNestedLoop)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({10000, 0})
    ->Args({10000, 1});

/// All-pairs incomplete skyline over a prebuilt matrix.
std::vector<Row> AllPairs(const std::vector<Row>& rows,
                          const std::vector<skyline::BoundDimension>& dims,
                          const skyline::SkylineOptions& opts) {
  auto matrix = skyline::DominanceMatrix::Build(rows, dims);
  auto survivors = skyline::ColumnarAllPairsIncomplete(
      *matrix, skyline::AllIndices(*matrix), opts);
  return skyline::MaterializeRows(rows, *survivors);
}

void BM_ColumnarAllPairsIncomplete(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent, 0.25);
  auto dims = MinDims(4);
  skyline::SkylineOptions opts;
  opts.nulls = skyline::NullSemantics::kIncomplete;
  for (auto _ : state) {
    auto result = AllPairs(rows, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarAllPairsIncomplete)->Arg(500)->Arg(1000)->Arg(2000);

void BM_ColumnarSortFilterSkyline(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       DistFromArg(state.range(1)));
  auto dims = MinDims(4);
  for (auto _ : state) {
    auto result = skyline::ColumnarSkyline(
        skyline::SkylineKernel::kSortFilterSkyline, rows, dims, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColumnarSortFilterSkyline)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

void BM_NullBitmapPartitioning(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 6,
                       PointDistribution::kIndependent, 0.2);
  auto matrix = skyline::DominanceMatrix::Build(rows, MinDims(6));
  for (auto _ : state) {
    auto parts = skyline::PartitionIndicesByNullBitmap(
        *matrix, skyline::AllIndices(*matrix));
    benchmark::DoNotOptimize(parts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NullBitmapPartitioning)->Arg(10000);

void BM_IncompletePipeline(benchmark::State& state) {
  // The full local bitmap-grouped BNL -> all-pairs pipeline of section 5.7.
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent, 0.25);
  auto dims = MinDims(4);
  skyline::SkylineOptions opts;
  opts.nulls = skyline::NullSemantics::kIncomplete;
  for (auto _ : state) {
    auto local = skyline::ColumnarSkyline(
        skyline::SkylineKernel::kBlockNestedLoop, rows, dims, opts);
    auto result = AllPairs(*local, dims, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncompletePipeline)->Arg(1000)->Arg(4000);

/// Projection cost: range(1) = 0 keys every dimension directly; 1 puts a
/// NaN into every dimension, so each one is ranked through a sorted
/// dictionary.
void BM_MatrixBuild(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent);
  if (state.range(1) == 1) {
    for (auto& v : rows[0]) v = Value::Double(std::nan(""));
  }
  auto dims = MinDims(4);
  for (auto _ : state) {
    auto matrix = skyline::DominanceMatrix::Build(rows, dims);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MatrixBuild)->Args({10000, 0})->Args({10000, 1});

void BM_BruteForce(benchmark::State& state) {
  auto rows = MakeRows(static_cast<size_t>(state.range(0)), 4,
                       PointDistribution::kIndependent);
  auto dims = MinDims(4);
  for (auto _ : state) {
    auto result = skyline::BruteForceSkyline(rows, dims, {});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BruteForce)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace sparkline

BENCHMARK_MAIN();
