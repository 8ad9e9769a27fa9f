// Tests for the skyline kernels over rows, including property sweeps against
// the brute-force oracle and the executable Appendix-A counterexample.
#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/timer.h"
#include "skyline/columnar.h"
#include "test_util.h"

namespace sparkline {
namespace skyline {
namespace {

using ::sparkline::testing::AllPairsSkyline;

Row R(std::vector<double> vals) {
  Row row;
  for (double v : vals) row.push_back(Value::Double(v));
  return row;
}

Row RN(std::vector<std::optional<double>> vals) {
  Row row;
  for (const auto& v : vals) {
    row.push_back(v.has_value() ? Value::Double(*v)
                                : Value::Null(DataType::Double()));
  }
  return row;
}

std::vector<BoundDimension> MinDims(size_t n) {
  std::vector<BoundDimension> dims;
  for (size_t i = 0; i < n; ++i) dims.push_back({i, SkylineGoal::kMin});
  return dims;
}

std::vector<std::string> Sorted(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const auto& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Row> RandomRows(size_t n, size_t dims, double null_rate,
                            int cardinality, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t d = 0; d < dims; ++d) {
      if (null_rate > 0 && rng.Bernoulli(null_rate)) {
        row.push_back(Value::Null(DataType::Double()));
      } else {
        row.push_back(
            Value::Double(static_cast<double>(rng.UniformInt(0, cardinality))));
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<Row>> Bnl(const std::vector<Row>& rows,
                             const std::vector<BoundDimension>& dims,
                             const SkylineOptions& options) {
  return ColumnarSkyline(SkylineKernel::kBlockNestedLoop, rows, dims, options);
}

/// The engine's incomplete pipeline over one relation: bitmap-grouped BNL
/// (the local stage), then all-pairs over the local union (the global
/// stage); complete semantics run BNL alone.
Result<std::vector<Row>> LocalThenGlobal(
    const std::vector<Row>& rows, const std::vector<BoundDimension>& dims,
    const SkylineOptions& options) {
  SL_ASSIGN_OR_RETURN(std::vector<Row> local, Bnl(rows, dims, options));
  if (options.nulls == NullSemantics::kComplete) return local;
  return AllPairsSkyline(local, dims, options);
}

TEST(BnlTest, EmptyInput) {
  auto result = Bnl({}, MinDims(2), {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(BnlTest, SingleTupleIsItsOwnSkyline) {
  auto result = Bnl({R({1, 2})}, MinDims(2), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(BnlTest, DominatedTupleRemoved) {
  auto result = Bnl({R({2, 2}), R({1, 1}), R({3, 0})}, MinDims(2), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Sorted(*result), Sorted({R({1, 1}), R({3, 0})}));
}

TEST(BnlTest, DuplicatesKeptWithoutDistinct) {
  auto result = Bnl({R({1, 1}), R({1, 1})}, MinDims(2), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(BnlTest, DuplicatesCollapsedWithDistinct) {
  SkylineOptions opts;
  opts.distinct = true;
  auto result = Bnl({R({1, 1}), R({1, 1})}, MinDims(2), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(BnlTest, CountsDominanceTests) {
  DominanceCounter counter;
  SkylineOptions opts;
  opts.counter = &counter;
  auto result = Bnl({R({1, 1}), R({2, 2}), R({3, 3})}, MinDims(2), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(counter.tests.load(), 0);
}

TEST(BnlTest, DeadlineProducesTimeout) {
  auto rows = RandomRows(20000, 4, 0, 1000000, 3);
  SkylineOptions opts;
  opts.deadline_nanos = StopWatch::NowNanos();  // already expired
  auto result = Bnl(rows, MinDims(4), opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeout());
}

// Every kernel polls the cancellation token at the DeadlineChecker cadence;
// with a pre-cancelled token each must return Status::Cancelled (never a
// crash, a hang, or a partial result passed off as complete).
TEST(CancellationTest, EveryKernelHonorsCancelledToken) {
  const std::vector<Row> rows = RandomRows(20000, 4, 0, 1000000, 17);
  const std::vector<BoundDimension> dims = MinDims(4);
  CancellationToken token;
  token.Cancel();

  auto expect_cancelled = [](const Status& s, const std::string& kernel) {
    EXPECT_EQ(s.code(), StatusCode::kCancelled) << kernel << ": "
                                                << s.ToString();
  };

  SkylineOptions opts;
  opts.cancel = &token;
  expect_cancelled(Bnl(rows, dims, opts).status(), "bnl");
  expect_cancelled(
      ColumnarSkyline(SkylineKernel::kSortFilterSkyline, rows, dims, opts)
          .status(),
      "sfs");

  // Incomplete-data kernels (the quadratic scans are the ones that need
  // interruption most).
  const std::vector<Row> sparse = RandomRows(4000, 3, 0.3, 50, 21);
  auto matrix = DominanceMatrix::Build(sparse, MinDims(3));
  ASSERT_TRUE(matrix.ok());
  const std::vector<uint32_t> all = AllIndices(*matrix);
  const std::vector<uint32_t> first_half(all.begin(),
                                         all.begin() + all.size() / 2);
  const std::vector<uint32_t> second_half(all.begin() + all.size() / 2,
                                          all.end());
  SkylineOptions iopts;
  iopts.nulls = NullSemantics::kIncomplete;
  iopts.cancel = &token;
  expect_cancelled(ColumnarAllPairsIncomplete(*matrix, all, iopts).status(),
                   "all_pairs");
  SkylineOptions vopts = iopts;
  vopts.cancel = nullptr;
  auto candidates = ColumnarAllPairsIncomplete(*matrix, first_half, vopts);
  ASSERT_TRUE(candidates.ok());
  expect_cancelled(
      ColumnarValidateAgainstChunk(*matrix, *candidates, second_half, iopts)
          .status(),
      "validate");
}

TEST(AllPairsTest, MatchesOracleOnCyclicData) {
  // The paper's 3-tuple cycle: correct skyline is empty.
  std::vector<Row> rows = {RN({1, std::nullopt, 10}), RN({3, 2, std::nullopt}),
                           RN({std::nullopt, 5, 3})};
  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto result = AllPairsSkyline(rows, MinDims(3), opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(FlawedGulzarTest, AppendixACounterexample) {
  // The eager-deletion algorithm of [20] returns {c} where the correct
  // answer is the empty skyline (paper Appendix A).
  std::vector<Row> rows = {RN({1, std::nullopt, 10}), RN({3, 2, std::nullopt}),
                           RN({std::nullopt, 5, 3})};
  auto flawed = FlawedGulzarGlobal(rows, MinDims(3));
  EXPECT_EQ(flawed.size(), 1u);  // the bug: one tuple survives

  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto correct = AllPairsSkyline(rows, MinDims(3), opts);
  ASSERT_TRUE(correct.ok());
  EXPECT_TRUE(correct->empty());
  EXPECT_TRUE(BruteForceSkyline(rows, MinDims(3), opts).empty());

  // The round-based parallel protocol (one chunk per tuple: every
  // elimination happens in a validation round) agrees with all-pairs.
  auto matrix = DominanceMatrix::Build(rows, MinDims(3));
  ASSERT_TRUE(matrix.ok());
  for (uint32_t c = 0; c < rows.size(); ++c) {
    std::vector<uint32_t> candidate = {c};
    for (uint32_t peer = 0; peer < rows.size(); ++peer) {
      if (peer == c) continue;
      auto kept =
          ColumnarValidateAgainstChunk(*matrix, candidate, {peer}, opts);
      ASSERT_TRUE(kept.ok());
      candidate = *kept;
    }
    EXPECT_TRUE(candidate.empty()) << "tuple " << c << " leaked";
  }
}

TEST(PartitionTest, GroupsByNullBitmap) {
  std::vector<Row> rows = {RN({1, 2}), RN({std::nullopt, 2}), RN({3, 4}),
                           RN({std::nullopt, 7})};
  auto matrix = DominanceMatrix::Build(rows, MinDims(2));
  ASSERT_TRUE(matrix.ok());
  auto parts = PartitionIndicesByNullBitmap(*matrix, AllIndices(*matrix));
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].size() + parts[1].size(), 4u);
  for (const auto& part : parts) {
    const uint32_t bitmap = NullBitmap(rows[part[0]], MinDims(2));
    for (const uint32_t r : part) {
      EXPECT_EQ(NullBitmap(rows[r], MinDims(2)), bitmap);
      EXPECT_EQ(matrix->null_bitmap(r), bitmap);
    }
  }
}

TEST(Lemma51Test, LocalSkylineUnionPreservesGlobalSkyline) {
  // Paper Lemma 5.1: for every tuple not in the global skyline, either it is
  // gone from the union of local skylines or some local-skyline tuple still
  // dominates it. Equivalently: the global skyline of the local-union equals
  // the global skyline of the full input.
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto rows = RandomRows(400, 3, 0.3, 6, seed);
    auto dims = MinDims(3);
    SkylineOptions opts;
    opts.nulls = NullSemantics::kIncomplete;

    auto matrix = DominanceMatrix::Build(rows, dims);
    ASSERT_TRUE(matrix.ok());
    std::vector<uint32_t> local_union;
    for (const auto& part :
         PartitionIndicesByNullBitmap(*matrix, AllIndices(*matrix))) {
      auto local = ColumnarBlockNestedLoop(*matrix, part, opts);
      ASSERT_TRUE(local.ok());
      local_union.insert(local_union.end(), local->begin(), local->end());
    }
    auto from_union = ColumnarAllPairsIncomplete(*matrix, local_union, opts);
    ASSERT_TRUE(from_union.ok());
    auto oracle = BruteForceSkyline(rows, dims, opts);
    EXPECT_EQ(Sorted(MaterializeRows(rows, *from_union)), Sorted(oracle))
        << "seed " << seed;
  }
}

TEST(SfsTest, MatchesBnlOnCompleteData) {
  for (uint64_t seed : {10u, 11u, 12u}) {
    auto rows = RandomRows(500, 3, 0, 50, seed);
    auto bnl = Bnl(rows, MinDims(3), {});
    auto sfs = ColumnarSkyline(SkylineKernel::kSortFilterSkyline, rows,
                               MinDims(3), {});
    ASSERT_TRUE(bnl.ok());
    ASSERT_TRUE(sfs.ok());
    EXPECT_EQ(Sorted(*bnl), Sorted(*sfs));
  }
}

TEST(LocalThenGlobalTest, CompleteMatchesOracle) {
  auto rows = RandomRows(200, 2, 0, 20, 77);
  auto got = LocalThenGlobal(rows, MinDims(2), {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got), Sorted(BruteForceSkyline(rows, MinDims(2), {})));
}

TEST(LocalThenGlobalTest, IncompleteMatchesOracle) {
  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto rows = RandomRows(300, 3, 0.25, 5, 31);
  auto got = LocalThenGlobal(rows, MinDims(3), opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got), Sorted(BruteForceSkyline(rows, MinDims(3), opts)));
}

// --- property sweeps vs. the brute-force oracle -------------------------------

struct SweepParam {
  size_t n;
  size_t dims;
  double null_rate;
  int cardinality;
  uint64_t seed;
};

class SkylineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SkylineSweep, BnlMatchesOracleOnCompleteData) {
  const auto& p = GetParam();
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  auto got = Bnl(rows, MinDims(p.dims), {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got),
            Sorted(BruteForceSkyline(rows, MinDims(p.dims), {})));
}

TEST_P(SkylineSweep, AllPairsMatchesOracleOnIncompleteData) {
  const auto& p = GetParam();
  SkylineOptions opts;
  opts.nulls = NullSemantics::kIncomplete;
  auto rows = RandomRows(p.n, p.dims, p.null_rate, p.cardinality, p.seed);
  auto got = AllPairsSkyline(rows, MinDims(p.dims), opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got),
            Sorted(BruteForceSkyline(rows, MinDims(p.dims), opts)));
}

TEST_P(SkylineSweep, MixedGoalsMatchOracle) {
  const auto& p = GetParam();
  std::vector<BoundDimension> dims;
  for (size_t d = 0; d < p.dims; ++d) {
    dims.push_back({d, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  auto got = Bnl(rows, dims, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got), Sorted(BruteForceSkyline(rows, dims, {})));
}

TEST_P(SkylineSweep, DiffGoalMatchesOracle) {
  const auto& p = GetParam();
  if (p.dims < 2) GTEST_SKIP();
  std::vector<BoundDimension> dims;
  dims.push_back({0, SkylineGoal::kDiff});
  for (size_t d = 1; d < p.dims; ++d) dims.push_back({d, SkylineGoal::kMin});
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  auto got = Bnl(rows, dims, {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Sorted(*got), Sorted(BruteForceSkyline(rows, dims, {})));
}

TEST_P(SkylineSweep, DistinctMatchesOracle) {
  const auto& p = GetParam();
  SkylineOptions opts;
  opts.distinct = true;
  auto rows = RandomRows(p.n, p.dims, 0.0, p.cardinality, p.seed);
  auto got = Bnl(rows, MinDims(p.dims), opts);
  ASSERT_TRUE(got.ok());
  // DISTINCT keeps one representative per duplicate group; sizes must match
  // the oracle's.
  EXPECT_EQ(got->size(),
            BruteForceSkyline(rows, MinDims(p.dims), opts).size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, SkylineSweep,
    ::testing::Values(
        SweepParam{50, 1, 0.3, 4, 1}, SweepParam{100, 2, 0.2, 5, 2},
        SweepParam{200, 2, 0.4, 3, 3}, SweepParam{150, 3, 0.25, 6, 4},
        SweepParam{300, 3, 0.1, 10, 5}, SweepParam{100, 4, 0.3, 4, 6},
        SweepParam{250, 4, 0.15, 8, 7}, SweepParam{80, 5, 0.2, 3, 8},
        SweepParam{200, 5, 0.05, 12, 9}, SweepParam{120, 6, 0.25, 5, 10}));

}  // namespace
}  // namespace skyline
}  // namespace sparkline
