// Tests for the columnar dominance subsystem (skyline/columnar.h): the
// DominanceMatrix projection and its order-exact encoding of every admitted
// type (huge BIGINTs, NaN, VARCHAR goals), the block dominance primitive
// against the per-pair compare, the index-based kernels' equivalence with
// the brute-force oracle and with their per-pair transcriptions (rows,
// order and test counts), and the limit that keeps them safe (>32
// dimensions).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <type_traits>

#include <gtest/gtest.h>

#include "catalog/table.h"
#include "common/cancellation.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "skyline/columnar.h"
#include "test_util.h"

namespace sparkline {
namespace skyline {
namespace {

Row R(std::vector<double> vals) {
  Row row;
  for (double v : vals) row.push_back(Value::Double(v));
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

/// Correlated rows: a per-row base level plus small per-dimension noise, so
/// good tuples are good everywhere — the workload where SaLSa stop points
/// terminate scans early.
std::vector<Row> CorrelatedRows(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double base = rng.Uniform(0.0, 100.0);
    Row row;
    for (size_t d = 0; d < dims; ++d) {
      row.push_back(Value::Double(base + rng.Uniform(0.0, 5.0)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Anti-correlated rows: points near a constant-sum plane, the
/// skyline-heavy workload where stop points rarely fire.
std::vector<Row> AntiCorrelatedRows(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    double sum = 0;
    for (size_t d = 0; d + 1 < dims; ++d) {
      const double v = rng.Uniform(0.0, 100.0 - sum / static_cast<double>(dims));
      row.push_back(Value::Double(v));
      sum += v;
    }
    row.push_back(Value::Double(std::max(0.0, 100.0 - sum)));
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- DominanceMatrix --------------------------------------------------------

TEST(DominanceMatrixTest, CompareMatchesCompareRows) {
  Rng rng(11);
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax},
                                   {2, SkylineGoal::kDiff}};
  std::vector<Row> rows = RandomRows(80, 3, /*null_rate=*/0.0, 5, 21);
  auto matrix = DominanceMatrix::Build(rows, dims);
  ASSERT_TRUE(matrix.ok());
  EXPECT_FALSE(matrix->has_nulls());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    for (uint32_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(matrix->Compare(i, j, NullSemantics::kComplete),
                CompareRows(rows[i], rows[j], dims, NullSemantics::kComplete))
          << "rows " << i << " vs " << j;
    }
  }
}

TEST(DominanceMatrixTest, IncompleteCompareMatchesCompareRows) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax},
                                   {2, SkylineGoal::kMin}};
  std::vector<Row> rows = RandomRows(80, 3, /*null_rate=*/0.3, 4, 22);
  auto matrix = DominanceMatrix::Build(rows, dims);
  ASSERT_TRUE(matrix.ok());
  for (uint32_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(matrix->null_bitmap(i), NullBitmap(rows[i], dims));
    for (uint32_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(matrix->Compare(i, j, NullSemantics::kIncomplete),
                CompareRows(rows[i], rows[j], dims, NullSemantics::kIncomplete));
    }
  }
}

TEST(DominanceMatrixTest, VarcharDiffUsesDictionaryCodes) {
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kDiff}};
  std::vector<Row> rows;
  rows.push_back({Value::Double(1), Value::String("red")});
  rows.push_back({Value::Double(2), Value::String("red")});
  rows.push_back({Value::Double(0.5), Value::String("blue")});
  auto matrix = DominanceMatrix::Build(rows, dims);
  ASSERT_TRUE(matrix.ok());
  // Same color: plain MIN dominance; different color: incomparable.
  EXPECT_EQ(matrix->Compare(0, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(matrix->Compare(0, 2, NullSemantics::kComplete),
            Dominance::kIncomparable);
}

/// Every pairwise Compare of the matrix equals CompareRows on the rows, under
/// both null semantics — the order-exactness contract of Build.
void ExpectOrderExact(const std::vector<Row>& rows,
                      const std::vector<BoundDimension>& dims) {
  auto matrix = DominanceMatrix::Build(rows, dims);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  for (uint32_t i = 0; i < rows.size(); ++i) {
    for (uint32_t j = 0; j < rows.size(); ++j) {
      for (const NullSemantics nulls :
           {NullSemantics::kComplete, NullSemantics::kIncomplete}) {
        if (nulls == NullSemantics::kComplete && matrix->has_nulls()) continue;
        EXPECT_EQ(matrix->Compare(i, j, nulls),
                  CompareRows(rows[i], rows[j], dims, nulls))
            << RowToString(rows[i]) << " vs " << RowToString(rows[j]);
      }
    }
  }
}

TEST(DominanceMatrixTest, HugeBigintsAreRankedExactly) {
  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<Row> rows;
  // k53 + 1 and k53 are distinguishable as int64 but collapse as double, so
  // the dimension must be ranked rather than keyed directly.
  for (const int64_t v : {k53 + 1, k53, -k53 - 1, -k53, kMax, kMin, int64_t{0},
                          kMax - 1, k53 + 1}) {
    rows.push_back({Value::Int64(v), Value::Int64(v % 3)});
  }
  auto matrix = DominanceMatrix::Build(rows, MinDims(1));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->ranked_mask(), 1u);
  EXPECT_FALSE(matrix->all_numeric_minmax());
  EXPECT_EQ(matrix->Compare(0, 1, NullSemantics::kComplete),
            Dominance::kRightDominates);
  EXPECT_EQ(matrix->Compare(0, 8, NullSemantics::kComplete), Dominance::kEqual);
  // The dictionary is the sorted distinct values.
  const std::vector<Value>& dict = matrix->dictionary(0);
  ASSERT_EQ(dict.size(), 8u);
  EXPECT_EQ(dict.front().int64_value(), kMin);
  EXPECT_EQ(dict.back().int64_value(), kMax);

  for (const SkylineGoal goal :
       {SkylineGoal::kMin, SkylineGoal::kMax, SkylineGoal::kDiff}) {
    ExpectOrderExact(rows, {{0, goal}, {1, SkylineGoal::kMin}});
  }
}

TEST(DominanceMatrixTest, NaNRanksAboveInfinity) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Row> rows{R({1.0, 0}),  R({nan, 0}),  R({inf, 1}),
                        R({-inf, 1}), R({-0.0, 2}), R({0.0, 2}),
                        R({-nan, 0}), R({nan, 3})};
  auto matrix = DominanceMatrix::Build(rows, MinDims(1));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->ranked_mask(), 1u);
  // MIN: every number beats NaN, NaN ties NaN (whatever its sign bit), and
  // -0.0 ties 0.0.
  EXPECT_EQ(matrix->Compare(2, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(matrix->Compare(1, 6, NullSemantics::kComplete), Dominance::kEqual);
  EXPECT_EQ(matrix->Compare(4, 5, NullSemantics::kComplete), Dominance::kEqual);
  for (uint32_t r = 0; r < rows.size(); ++r) {
    EXPECT_FALSE(std::isnan(matrix->key(r, 0))) << "keys are never NaN";
  }

  for (const SkylineGoal goal :
       {SkylineGoal::kMin, SkylineGoal::kMax, SkylineGoal::kDiff}) {
    ExpectOrderExact(rows, {{0, goal}, {1, SkylineGoal::kMax}});
  }
}

// ±inf has no finite key: a row holding +inf in one normalized key and
// -inf in another would score NaN, which breaks the SFS presort's strict
// weak ordering. Ranked, every key and every Score is finite.
TEST(DominanceMatrixTest, InfinitiesAreRankedSoScoresStayFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Row> rows{R({inf, -inf, 5}), R({3, 4, 4}), R({1, -inf, 5}),
                        R({2, 2, 2}),      R({inf, -inf, 6}), R({0, 9, 9}),
                        R({inf, 0, -inf})};
  auto matrix = DominanceMatrix::Build(rows, MinDims(3));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->ranked_mask(), 7u);
  EXPECT_FALSE(matrix->all_numeric_minmax());
  for (uint32_t r = 0; r < rows.size(); ++r) {
    EXPECT_TRUE(std::isfinite(matrix->Score(r))) << "row " << r;
  }
  EXPECT_EQ(matrix->Compare(2, 0, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  for (const SkylineGoal goal : {SkylineGoal::kMin, SkylineGoal::kMax}) {
    ExpectOrderExact(rows, {{0, goal}, {1, goal}, {2, SkylineGoal::kMin}});
  }
}

TEST(DominanceMatrixTest, VarcharGoalsRankLexicographically) {
  std::vector<Row> rows;
  for (const char* s : {"pear", "apple", "", "Zebra", "apple", "banana"}) {
    rows.push_back({Value::String(s), Value::Double(std::string(s).size())});
  }
  rows.push_back({Value::Null(DataType::String()), Value::Double(1)});
  auto matrix = DominanceMatrix::Build(rows, MinDims(2));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->ranked_mask(), 1u);
  // "apple" < "pear" and 5 > 4: incomparable; "" beats "apple" on both.
  EXPECT_EQ(matrix->Compare(1, 0, NullSemantics::kComplete),
            Dominance::kIncomparable);
  EXPECT_EQ(matrix->Compare(2, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  for (const SkylineGoal goal : {SkylineGoal::kMin, SkylineGoal::kMax}) {
    ExpectOrderExact(rows, {{0, goal}, {1, SkylineGoal::kMin}});
  }
}

TEST(DominanceMatrixTest, MixedBigintDoubleColumnRanksByDouble) {
  // A column mixing BIGINT and DOUBLE compares as DOUBLE across types;
  // ranking must stay a strict weak order even beyond 2^53.
  constexpr int64_t k53 = int64_t{1} << 53;
  std::vector<Row> rows{{Value::Int64(k53 + 1)},
                        {Value::Double(9007199254740992.0)},
                        {Value::Int64(k53)},
                        {Value::Double(std::nan(""))},
                        {Value::Int64(-3)},
                        {Value::Double(-2.5)}};
  auto matrix = DominanceMatrix::Build(rows, MinDims(1));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->Compare(4, 5, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  EXPECT_EQ(matrix->Compare(1, 2, NullSemantics::kComplete), Dominance::kEqual);
  EXPECT_EQ(matrix->Compare(1, 3, NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

TEST(DominanceMatrixTest, RejectsTooManyDimensions) {
  std::vector<Row> rows{R(std::vector<double>(33, 1.0))};
  auto matrix = DominanceMatrix::Build(rows, MinDims(33));
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInvalidArgument);
}

TEST(DominanceMatrixTest, SmallBigintsAreExact) {
  std::vector<Row> rows;
  rows.push_back({Value::Int64(3), Value::Int64(7)});
  rows.push_back({Value::Int64(3), Value::Int64(9)});
  auto matrix = DominanceMatrix::Build(rows, MinDims(2));
  ASSERT_TRUE(matrix.ok());
  EXPECT_EQ(matrix->ranked_mask(), 0u);
  EXPECT_TRUE(matrix->all_numeric_minmax());
  EXPECT_EQ(matrix->Compare(0, 1, NullSemantics::kComplete),
            Dominance::kLeftDominates);
}

// --- kernel equivalence -----------------------------------------------------

struct KernelCase {
  SkylineKernel kernel;
  const char* name;
};

class ColumnarKernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ColumnarKernelEquivalence, MatchesBruteForceComplete) {
  const auto& param = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<Row> rows = RandomRows(300, 3, /*null_rate=*/0.0, 8, seed);
    auto dims = MinDims(3);
    dims[1].goal = SkylineGoal::kMax;
    SkylineOptions options;
    auto columnar = ColumnarSkyline(param.kernel, rows, dims, options);
    ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
    EXPECT_EQ(Sorted(*columnar),
              Sorted(BruteForceSkyline(rows, dims, options)))
        << param.name << " seed=" << seed;
  }
}

TEST_P(ColumnarKernelEquivalence, MatchesBruteForceWithDistinct) {
  const auto& param = GetParam();
  // Low cardinality forces duplicate tuples, exercising DISTINCT.
  std::vector<Row> rows = RandomRows(200, 2, /*null_rate=*/0.0, 3, 77);
  auto dims = MinDims(2);
  SkylineOptions options;
  options.distinct = true;
  auto columnar = ColumnarSkyline(param.kernel, rows, dims, options);
  ASSERT_TRUE(columnar.ok());
  EXPECT_EQ(Sorted(*columnar), Sorted(BruteForceSkyline(rows, dims, options)));
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ColumnarKernelEquivalence,
    ::testing::Values(
        KernelCase{SkylineKernel::kBlockNestedLoop, "bnl"},
        KernelCase{SkylineKernel::kSortFilterSkyline, "sfs"}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return info.param.name;
    });

/// Block-Nested-Loop transcribed over CompareRows: the window policy the
/// columnar BNL kernel must reproduce (same survivors, same order, same
/// number of dominance tests).
std::vector<Row> ReferenceBnl(const std::vector<Row>& input,
                              const std::vector<BoundDimension>& dims,
                              const SkylineOptions& options, int64_t* tests) {
  std::vector<Row> window;
  for (const Row& tuple : input) {
    bool eliminated = false;
    size_t i = 0;
    while (i < window.size()) {
      ++*tests;
      const Dominance dom = CompareRows(tuple, window[i], dims, options.nulls);
      if (dom == Dominance::kRightDominates ||
          (dom == Dominance::kEqual && options.distinct)) {
        eliminated = true;
        break;
      }
      if (dom == Dominance::kLeftDominates) {
        window[i] = std::move(window.back());
        window.pop_back();
        continue;
      }
      ++i;
    }
    if (!eliminated) window.push_back(tuple);
  }
  return window;
}

TEST(ColumnarKernelTest, BnlMatchesReferenceWindowPolicyExactly) {
  // Not just set-equal: BNL's window policy is deterministic, so the
  // columnar kernel must produce the same rows in the same order with the
  // same number of dominance tests — on direct and on ranked keys.
  std::vector<Row> rows = RandomRows(250, 4, /*null_rate=*/0.0, 6, 5);
  for (size_t r = 0; r < rows.size(); r += 7) {
    rows[r][2] = Value::Double(std::nan(""));
  }
  for (const bool ranked : {false, true}) {
    auto dims = MinDims(4);
    dims[1].goal = SkylineGoal::kMax;
    if (!ranked) dims.resize(2);  // drop the NaN-bearing dimension
    for (const bool distinct : {false, true}) {
      DominanceCounter counter;
      SkylineOptions options;
      options.distinct = distinct;
      options.counter = &counter;
      auto columnar =
          ColumnarSkyline(SkylineKernel::kBlockNestedLoop, rows, dims, options);
      ASSERT_TRUE(columnar.ok());
      int64_t reference_tests = 0;
      const std::vector<Row> reference =
          ReferenceBnl(rows, dims, options, &reference_tests);
      ASSERT_EQ(columnar->size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(RowToString((*columnar)[i]), RowToString(reference[i]));
      }
      EXPECT_EQ(counter.tests.load(), reference_tests);
    }
  }
}

/// Checks BNL over `rows` against ReferenceBnl: same rows, same order, same
/// number of dominance tests.
void ExpectBnlMatchesReference(const std::vector<Row>& rows,
                               const std::vector<BoundDimension>& dims,
                               const SkylineOptions& base) {
  DominanceCounter counter;
  SkylineOptions options = base;
  options.counter = &counter;
  auto columnar =
      ColumnarSkyline(SkylineKernel::kBlockNestedLoop, rows, dims, options);
  ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
  int64_t reference_tests = 0;
  const std::vector<Row> reference =
      ReferenceBnl(rows, dims, options, &reference_tests);
  ASSERT_EQ(columnar->size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(RowToString((*columnar)[i]), RowToString(reference[i]))
        << "window row " << i;
  }
  EXPECT_EQ(counter.tests.load(), reference_tests);
}

// The block loop scans the window four rows per compare, yet keeps the
// per-pair loop's window and counts exactly its tests, whatever the window's
// shape: 0 to 9 rows and 4k ± 1 rows; a newcomer that is a duplicate of, is
// dominated by, or evicts the window row at every lane position; several
// evictions in one block and through the last window row. Over plain
// MIN/MAX keys, with a BOOLEAN and a DIFF dimension (the newcomer's DIFF
// value matching or not), and inside one null-bitmap group under
// incomplete semantics.
TEST(ColumnarKernelTest, BnlMatchesReferenceAtEveryLanePosition) {
  enum class Variant { kPlain, kBooleanDiff, kDiffDiffers, kNullGroup };
  auto row = [](Variant variant, double a, double b) {
    Row r{Value::Double(a), Value::Double(b)};
    switch (variant) {
      case Variant::kPlain:
        break;
      case Variant::kBooleanDiff:
      case Variant::kDiffDiffers:
        r.push_back(Value::Bool(true));
        r.push_back(Value::Int64(7));
        break;
      case Variant::kNullGroup:
        r.push_back(Value::Null(DataType::Double()));
        break;
    }
    return r;
  };
  size_t cases = 0;
  for (const Variant variant : {Variant::kPlain, Variant::kBooleanDiff,
                                Variant::kDiffDiffers, Variant::kNullGroup}) {
    std::vector<BoundDimension> dims = MinDims(2);
    SkylineOptions options;
    if (variant == Variant::kBooleanDiff || variant == Variant::kDiffDiffers) {
      dims.push_back({2, SkylineGoal::kMax});
      dims.push_back({3, SkylineGoal::kDiff});
    } else if (variant == Variant::kNullGroup) {
      dims.push_back({2, SkylineGoal::kMin});
      options.nulls = NullSemantics::kIncomplete;
    }
    for (const size_t w : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 31, 33}) {
      // The window: an antichain of w rows, (i, w - i).
      std::vector<Row> window;
      for (size_t i = 0; i < w; ++i) {
        window.push_back(row(variant, static_cast<double>(i),
                             static_cast<double>(w - i)));
      }
      // Newcomers probing window row p, one input each: a duplicate of it,
      // one it dominates, and ones evicting rows [p, p + k).
      std::vector<std::vector<Row>> newcomers;
      newcomers.push_back({row(variant, 0, 0)});  // evicts every row
      for (size_t p = 0; p < w; ++p) {
        const double a = static_cast<double>(p);
        const double b = static_cast<double>(w - p);
        newcomers.push_back({row(variant, a, b)});
        newcomers.push_back({row(variant, a + 0.5, b + 0.5)});
        for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, w - p}) {
          if (k == 0 || p + k > w) continue;
          const Row evictor =
              row(variant, a, b - static_cast<double>(k - 1) - 0.5);
          // Then its twin, which meets the rows moved in and the evictor.
          newcomers.push_back({evictor, evictor});
        }
      }
      for (std::vector<Row>& tail : newcomers) {
        if (variant == Variant::kDiffDiffers) tail[0][3] = Value::Int64(8);
        std::vector<Row> rows = window;
        rows.insert(rows.end(), tail.begin(), tail.end());
        for (const bool distinct : {false, true}) {
          SCOPED_TRACE(StrCat("variant=", static_cast<int>(variant), " w=", w,
                              " newcomer=", RowToString(tail[0]),
                              " distinct=", distinct));
          options.distinct = distinct;
          ExpectBnlMatchesReference(rows, dims, options);
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 2000u);
}

TEST(ColumnarKernelTest, IncompletePipelineMatchesOracle) {
  std::vector<Row> rows = RandomRows(300, 3, /*null_rate=*/0.25, 5, 31);
  auto dims = MinDims(3);
  SkylineOptions options;
  options.nulls = NullSemantics::kIncomplete;

  // Local stage: bitmap-grouped BNL equals one reference BNL per group.
  auto columnar_local =
      ColumnarSkyline(SkylineKernel::kBlockNestedLoop, rows, dims, options);
  ASSERT_TRUE(columnar_local.ok());
  std::map<uint32_t, std::vector<Row>> groups;
  for (const Row& r : rows) groups[NullBitmap(r, dims)].push_back(r);
  std::vector<Row> reference_local;
  for (const auto& [bitmap, group] : groups) {
    int64_t tests = 0;
    for (Row& r : ReferenceBnl(group, dims, options, &tests)) {
      reference_local.push_back(std::move(r));
    }
  }
  EXPECT_EQ(Sorted(*columnar_local), Sorted(reference_local));

  // Global stage: all-pairs with deferred deletion reaches the oracle.
  auto columnar_global =
      ::sparkline::testing::AllPairsSkyline(*columnar_local, dims, options);
  ASSERT_TRUE(columnar_global.ok());
  EXPECT_EQ(Sorted(*columnar_global),
            Sorted(BruteForceSkyline(rows, dims, options)));
}

// --- the NULL placeholder invariant -----------------------------------------

/// Every NULL key slot of `matrix` holds +0.0.
void ExpectNullSlotsHoldZero(const DominanceMatrix& matrix) {
  ASSERT_TRUE(matrix.has_nulls());
  for (uint32_t r = 0; r < matrix.num_rows(); ++r) {
    for (size_t d = 0; d < matrix.num_dims(); ++d) {
      if (((matrix.null_bitmap(r) >> d) & 1u) == 0) continue;
      EXPECT_EQ(matrix.key(r, d), 0.0) << "row " << r << " dim " << d;
      EXPECT_FALSE(std::signbit(matrix.key(r, d))) << "row " << r;
    }
  }
}

/// Random rows over (DOUBLE, DOUBLE, VARCHAR, DOUBLE) with NULLs in every
/// column. With `ranked`, column 1 holds a NaN (so it is ranked too) and
/// column 2 is non-null VARCHAR in some rows; otherwise column 2 is DOUBLE.
/// Low cardinality, so rows tie and repeat.
std::vector<Row> PlaceholderRows(size_t n, bool ranked, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t d = 0; d < 4; ++d) {
      const int v = static_cast<int>(rng.UniformInt(0, 3));
      if (rng.Bernoulli(0.3)) {
        row.push_back(Value::Null(d == 2 && ranked ? DataType::String()
                                                   : DataType::Double()));
      } else if (d == 2 && ranked) {
        row.push_back(
            Value::String(std::string(1, static_cast<char>('a' + v))));
      } else {
        row.push_back(Value::Double(v - 1.5));
      }
    }
    rows.push_back(std::move(row));
  }
  if (ranked) rows[0][1] = Value::Double(std::nan(""));
  return rows;
}

std::vector<BoundDimension> PlaceholderDims(bool diff) {
  return {{0, SkylineGoal::kMin},
          {1, SkylineGoal::kMax},
          {2, SkylineGoal::kMin},
          {3, diff ? SkylineGoal::kDiff : SkylineGoal::kMax}};
}

// Every NULL key slot holds 0.0 however its matrix was made — Build with
// direct and ranked dimensions, ConcatSelected, and the re-ranking Concat —
// the invariant that lets the incomplete local stage compare each bitmap
// group with complete semantics.
TEST(NullPlaceholderTest, NullSlotsHoldZeroAfterBuildAndConcat) {
  for (const bool diff : {false, true}) {
    SCOPED_TRACE(diff ? "with a DIFF dimension" : "MIN/MAX only");
    const auto dims = PlaceholderDims(diff);

    auto ranked = DominanceMatrix::Build(PlaceholderRows(60, true, 1), dims);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(ranked->ranked_mask(), 6u);  // NaN in d1, VARCHAR in d2
    ExpectNullSlotsHoldZero(*ranked);

    auto a = DominanceMatrix::Build(PlaceholderRows(40, false, 2), dims);
    auto b = DominanceMatrix::Build(PlaceholderRows(40, false, 3), dims);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->ranked_mask(), 0u);
    ExpectNullSlotsHoldZero(*a);
    const std::vector<uint32_t> odd = {1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
    const std::vector<uint32_t> all = AllIndices(*b);
    ExpectNullSlotsHoldZero(DominanceMatrix::ConcatSelected(
        {&*a, &*b}, {&odd, &all}));

    std::vector<ColumnarBatch> parts;
    for (uint64_t seed = 4; seed <= 6; ++seed) {
      auto part =
          ColumnarBatch::Project(PlaceholderRows(30, true, seed), dims);
      ASSERT_TRUE(part.ok());
      parts.push_back(part->WithSelection({0, 2, 4, 6, 8, 10, 12, 14}));
    }
    bool reprojected = false;
    ColumnarBatch merged = ColumnarBatch::Concat(&parts, nullptr, &reprojected);
    EXPECT_TRUE(reprojected);
    ExpectNullSlotsHoldZero(merged.matrix());
  }
}

// Over a bitmap-uniform group, BNL through the complete comparator (the
// branchless one without DIFF dimensions) keeps exactly the survivors, in
// the same order, and runs exactly the tests of BNL through CompareKeySpans
// with the group's null mask — DIFF and ranked dimensions included.
TEST(NullPlaceholderTest, BitmapGroupsCompareAlikeUnderBothSemantics) {
  size_t groups_checked = 0;
  for (const bool diff : {false, true}) {
    for (const bool ranked : {false, true}) {
      for (const bool distinct : {false, true}) {
        SCOPED_TRACE(StrCat("diff=", diff, " ranked=", ranked,
                            " distinct=", distinct));
        const std::vector<Row> rows = PlaceholderRows(400, ranked, 7 + diff);
        auto matrix = DominanceMatrix::Build(rows, PlaceholderDims(diff));
        ASSERT_TRUE(matrix.ok());
        ASSERT_EQ(matrix->ranked_mask() != 0, ranked);
        ASSERT_EQ(matrix->diff_mask() != 0, diff);
        for (const auto& group :
             PartitionIndicesByNullBitmap(*matrix, AllIndices(*matrix))) {
          SkylineOptions options;
          options.distinct = distinct;
          DominanceCounter masked_tests;
          options.counter = &masked_tests;
          options.nulls = NullSemantics::kIncomplete;
          auto masked = ColumnarBlockNestedLoop(*matrix, group, options);
          DominanceCounter complete_tests;
          options.counter = &complete_tests;
          options.nulls = NullSemantics::kComplete;
          auto complete = ColumnarBlockNestedLoop(*matrix, group, options);
          ASSERT_TRUE(masked.ok() && complete.ok());
          EXPECT_EQ(*masked, *complete);
          EXPECT_EQ(masked_tests.tests.load(), complete_tests.tests.load());
          groups_checked += group.size() > 1 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GE(groups_checked, 8u * 8u);
}

// Every columnar kernel — including the SFS early-stop scan, whose loop has
// its own termination logic — polls the cancellation token and returns
// Status::Cancelled under a pre-cancelled token instead of finishing the
// scan or crashing.
TEST(ColumnarKernelTest, EveryKernelHonorsCancelledToken) {
  const std::vector<Row> rows = AntiCorrelatedRows(20000, 4, 19);
  const auto dims = MinDims(4);
  CancellationToken token;
  token.Cancel();

  for (const SkylineKernel kernel :
       {SkylineKernel::kBlockNestedLoop, SkylineKernel::kSortFilterSkyline}) {
    SkylineOptions opts;
    opts.cancel = &token;
    auto r = ColumnarSkyline(kernel, rows, dims, opts);
    ASSERT_FALSE(r.ok()) << "kernel " << static_cast<int>(kernel);
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
        << "kernel " << static_cast<int>(kernel);
  }

  // The early-stop SFS pass on correlated data (where the stop normally
  // fires) still honors cancellation before reaching its stop point.
  {
    SkylineOptions opts;
    opts.cancel = &token;
    auto r = ColumnarSkyline(SkylineKernel::kSortFilterSkyline,
                             CorrelatedRows(20000, 4, 23), dims, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }

  // The parallel global merge's validate kernel.
  {
    auto matrix = DominanceMatrix::Build(rows, dims);
    ASSERT_TRUE(matrix.ok());
    std::vector<uint32_t> peer = AllIndices(*matrix);
    SortInSfsOrder(*matrix, &peer);
    const BlockedKeys keys = PackKeys(*matrix, peer);
    SkylineOptions opts;
    opts.cancel = &token;
    auto r = ColumnarValidateAgainstPeers(*matrix, AllIndices(*matrix),
                                          {{&peer, &keys, false}}, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }

  // Incomplete-data columnar path (all-pairs + candidate/validate rounds).
  SkylineOptions iopts;
  iopts.nulls = NullSemantics::kIncomplete;
  iopts.cancel = &token;
  auto incomplete = ::sparkline::testing::AllPairsSkyline(
      RandomRows(4000, 3, /*null_rate=*/0.3, 50, 29), MinDims(3), iopts);
  ASSERT_FALSE(incomplete.ok());
  EXPECT_EQ(incomplete.status().code(), StatusCode::kCancelled);
}

// --- regression: 32-dimension limit is a checked Status --------------------

TEST(DimensionLimitTest, EntryPointsReturnStatusBeyond32Dims) {
  std::vector<Row> rows{R(std::vector<double>(33, 1.0))};
  auto dims = MinDims(33);
  for (const SkylineKernel kernel :
       {SkylineKernel::kBlockNestedLoop, SkylineKernel::kSortFilterSkyline}) {
    auto result = ColumnarSkyline(kernel, rows, dims, {});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(::sparkline::testing::AllPairsSkyline(rows, dims, {}).ok());
  EXPECT_FALSE(ColumnarBatch::Project(rows, dims).ok());
  EXPECT_FALSE(DeltaClassify({}, rows, dims, {}).ok());
}

TEST(DimensionLimitTest, Exactly32DimsStillWorks) {
  std::vector<Row> rows{R(std::vector<double>(32, 1.0)),
                        R(std::vector<double>(32, 2.0))};
  auto result =
      ColumnarSkyline(SkylineKernel::kBlockNestedLoop, rows, MinDims(32), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

// --- the block primitive ------------------------------------------------------

/// The masks the block primitive must give for x against `rows` (1 to 4
/// packed rows), from the per-pair reference: lane l is a dominator when
/// rows[l] dominates x (or equals it, with `ties`), and dominated when x
/// dominates rows[l].
LaneMasks PerPairMasks(const std::vector<double>& x,
                       const std::vector<std::vector<double>>& rows,
                       bool ties) {
  LaneMasks want;
  for (uint32_t l = 0; l < rows.size(); ++l) {
    switch (CompareKeySpansCompleteScalar(rows[l].data(), x.data(), x.size())) {
      case Dominance::kLeftDominates:
        want.dominators |= 1u << l;
        break;
      case Dominance::kEqual:
        if (ties) want.dominators |= 1u << l;
        break;
      case Dominance::kRightDominates:
        want.dominated |= 1u << l;
        break;
      case Dominance::kIncomparable:
        break;
    }
  }
  return want;
}

/// One key: mostly from {0, 1, 2, 3}, so rows tie and repeat, and
/// sometimes ±0.0 or ±2^53 (all exact doubles).
double BlockKey(Rng* rng) {
  static const double kSpecial[] = {0.0, -0.0, 9007199254740992.0,
                                    -9007199254740992.0};
  return rng->Bernoulli(0.2) ? kSpecial[rng->UniformInt(0, 3)]
                             : static_cast<double>(rng->UniformInt(0, 3));
}

// Both paths of the block primitive give, lane by lane, the masks of the
// per-pair reference CompareKeySpansCompleteScalar: every d from 1 to 32,
// tail blocks of 1 to 3 live rows (their padded lanes masked off), ties,
// equal rows, -0.0 against +0.0 and ±2^53.
TEST(BlockPrimitiveTest, BothPathsMatchThePerPairCompare) {
  Rng rng(41);
  size_t compared = 0;
  for (size_t d = 1; d <= DominanceMatrix::kMaxDims; ++d) {
    for (int trial = 0; trial < 200; ++trial) {
      const size_t live = 1 + static_cast<size_t>(trial % kBlockLanes);
      std::vector<double> x(d);
      for (double& key : x) key = BlockKey(&rng);
      std::vector<std::vector<double>> rows(live, std::vector<double>(d));
      BlockedKeys block(d);
      for (auto& row : rows) {
        for (size_t j = 0; j < d; ++j) {
          // Every other row shares most of x's keys: equal rows and near
          // ties.
          row[j] = trial % 2 == 0 && rng.Bernoulli(0.7) ? x[j] : BlockKey(&rng);
        }
        block.Append(row.data());
      }
      const uint32_t mask = (1u << live) - 1;
      for (const bool ties : {false, true}) {
        SCOPED_TRACE(StrCat("d=", d, " trial=", trial, " live=", live,
                            " ties=", ties));
        const LaneMasks want = PerPairMasks(x, rows, ties);
        const LaneMasks scalar =
            CompareKeyLanesScalar(x.data(), block.block(0), d, 0, ties);
        EXPECT_EQ(scalar.dominators & mask, want.dominators);
        EXPECT_EQ(scalar.dominated & mask, want.dominated);
#if SPARKLINE_HAVE_AVX2_COMPARE
        if (simd::Avx2Available()) {
          const LaneMasks avx2 =
              simd::CompareKeyLanesAvx2(x.data(), block.block(0), d, 0, ties);
          EXPECT_EQ(avx2.dominators & mask, want.dominators);
          EXPECT_EQ(avx2.dominated & mask, want.dominated);
        }
#endif
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, DominanceMatrix::kMaxDims * 200 * 2);
}

// With a DIFF dimension the primitive's masks are CompareKeySpans': a lane
// that differs from x there is incomparable, one that matches it compares
// on the other dimensions.
TEST(BlockPrimitiveTest, DiffDimensionsMatchCompareKeySpans) {
  Rng rng(43);
  for (size_t d = 2; d <= 9; ++d) {
    for (int trial = 0; trial < 300; ++trial) {
      const uint32_t diff_mask =
          static_cast<uint32_t>(rng.UniformInt(1, (int64_t{1} << d) - 1));
      std::vector<double> x(d);
      for (double& key : x) key = static_cast<double>(rng.UniformInt(0, 2));
      BlockedKeys block(d);
      std::vector<std::vector<double>> rows(kBlockLanes, std::vector<double>(d));
      for (auto& row : rows) {
        for (double& key : row) key = static_cast<double>(rng.UniformInt(0, 2));
        block.Append(row.data());
      }
      for (const bool ties : {false, true}) {
        LaneMasks want;
        for (uint32_t l = 0; l < kBlockLanes; ++l) {
          const Dominance dom =
              CompareKeySpans(rows[l].data(), x.data(), d, diff_mask, 0);
          if (dom == Dominance::kLeftDominates ||
              (dom == Dominance::kEqual && ties)) {
            want.dominators |= 1u << l;
          } else if (dom == Dominance::kRightDominates) {
            want.dominated |= 1u << l;
          }
        }
        const LaneMasks scalar =
            CompareKeyLanesScalar(x.data(), block.block(0), d, diff_mask, ties);
        EXPECT_EQ(scalar.dominators, want.dominators) << "d=" << d;
        EXPECT_EQ(scalar.dominated, want.dominated) << "d=" << d;
#if SPARKLINE_HAVE_AVX2_COMPARE
        if (simd::Avx2Available()) {
          const LaneMasks avx2 = simd::CompareKeyLanesAvx2(
              x.data(), block.block(0), d, diff_mask, ties);
          EXPECT_EQ(avx2.dominators, want.dominators) << "d=" << d;
          EXPECT_EQ(avx2.dominated, want.dominated) << "d=" << d;
        }
#endif
      }
    }
  }
}

// BlockedKeys keeps row r's key j at block(r / 4)[j * 4 + r % 4], moves the
// last row into an erased slot, zeroes what it leaves, and unpacks back to
// the rows it was given.
TEST(BlockPrimitiveTest, BlockedKeysLayoutAndSwapErase) {
  const size_t d = 3;
  BlockedKeys keys(d);
  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < 9; ++r) {
    rows.push_back({r + 0.25, r + 0.5, r + 0.75});
    keys.Append(rows.back().data());
  }
  ASSERT_EQ(keys.size(), 9u);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t j = 0; j < d; ++j) {
      EXPECT_EQ(keys.block(r / 4)[j * 4 + r % 4], rows[r][j]);
    }
  }
  EXPECT_EQ(keys.MemoryBytes() >=
                static_cast<int64_t>(3 * kBlockLanes * d * sizeof(double)),
            true);
  // Erase row 5: row 8 moves there, and the tail block empties.
  keys.MoveLastTo(5);
  rows[5] = rows[8];
  rows.pop_back();
  ASSERT_EQ(keys.size(), 8u);
  // Erase the last row: nothing moves.
  keys.MoveLastTo(7);
  rows.pop_back();
  ASSERT_EQ(keys.size(), 7u);
  for (size_t j = 0; j < d; ++j) EXPECT_EQ(keys.block(1)[j * 4 + 3], 0.0);
  std::vector<double> want;
  for (const auto& row : rows) want.insert(want.end(), row.begin(), row.end());
  EXPECT_EQ(keys.Unpack(), want);
}

// --- ColumnarBatch: select / concat round-trips ------------------------------

TEST(ColumnarBatchTest, ProjectSelectDecodeRoundTrip) {
  const std::vector<Row> rows = RandomRows(100, 3, /*null_rate=*/0.0, 8, 7);
  auto batch = ColumnarBatch::Project(rows, MinDims(3));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->num_rows(), 100u);

  // A survivor view decodes to exactly the selected backing rows, in order.
  std::vector<uint32_t> selection = {5, 17, 3, 99, 17};
  ColumnarBatch view = batch->WithSelection(selection);
  std::vector<Row> decoded = view.Decode();
  ASSERT_EQ(decoded.size(), selection.size());
  for (size_t i = 0; i < selection.size(); ++i) {
    EXPECT_EQ(RowToString(decoded[i]), RowToString(rows[selection[i]]));
  }
}

TEST(ColumnarBatchTest, ConcatMatchesRowGatherAndReprojection) {
  // Three independently projected partitions (with nulls) concatenated must
  // behave exactly like one matrix projected from the gathered rows: same
  // pairwise dominance everywhere, same decode.
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kMax},
                                   {2, SkylineGoal::kMin}};
  std::vector<ColumnarBatch> parts;
  std::vector<Row> gathered;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<Row> rows =
        RandomRows(40, 3, /*null_rate=*/0.2, 5, seed);
    for (const auto& r : rows) gathered.push_back(r);
    auto batch = ColumnarBatch::Project(rows, dims);
    ASSERT_TRUE(batch.ok());
    parts.push_back(std::move(*batch));
  }
  ColumnarBatch merged = ColumnarBatch::Concat(&parts);
  ASSERT_EQ(merged.num_rows(), gathered.size());

  auto reference = DominanceMatrix::Build(gathered, dims);
  ASSERT_TRUE(reference.ok());
  for (uint32_t i = 0; i < gathered.size(); ++i) {
    for (uint32_t j = 0; j < gathered.size(); ++j) {
      EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kIncomplete),
                reference->Compare(i, j, NullSemantics::kIncomplete))
          << i << " vs " << j;
      EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kComplete),
                reference->Compare(i, j, NullSemantics::kComplete));
    }
  }
  const std::vector<Row> decoded = merged.Decode();
  for (size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(RowToString(decoded[i]), RowToString(gathered[i]));
  }
}

// Parts borrowing from one source through one column map gather their
// selected ids: the result stays borrowed() and decodes, through the
// column map, exactly the selected rows in part order — also when a NaN in
// one part ranks a dimension and the gather re-projects, which it then does
// from the borrowed backing. A part of another source makes the gather copy
// the selected rows out instead.
TEST(ColumnarBatchTest, ConcatOfOneSourceGathersIds) {
  for (const bool ranked : {false, true}) {
    SCOPED_TRACE(ranked ? "ranked" : "direct");
    // Source rows (id, a, b); the views read (b, a) through the map [2, 1].
    std::vector<Row> rows = RandomRows(12, 3, /*null_rate=*/0.0, 9, 41);
    if (ranked) rows[10][2] = Value::Double(std::nan(""));
    // Each store is built once: views of one store have the same source.
    auto source = ChunkedRows::Single(rows);
    const std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                           {1, SkylineGoal::kMax}};
    auto part = [&](std::shared_ptr<const ChunkedRows> from,
                    std::vector<uint32_t> ids,
                    std::vector<uint32_t> selection) {
      auto batch =
          ColumnarBatch::Project(RowView{from, std::move(ids), {2, 1}}, dims);
      SL_CHECK(batch.ok()) << batch.status().ToString();
      return batch->WithSelection(std::move(selection));
    };
    std::vector<Row> expected;
    for (const uint32_t id : {5u, 1u, 3u, 6u, 10u}) {
      expected.push_back(Row{rows[id][2], rows[id][1]});
    }
    auto reference = DominanceMatrix::Build(expected, dims);
    ASSERT_TRUE(reference.ok());

    for (const bool one_source : {true, false}) {
      std::vector<ColumnarBatch> parts;
      parts.push_back(part(source, {0, 1, 2, 3, 4, 5}, {5, 1, 3}));
      parts.push_back(part(one_source ? source
                                      : ChunkedRows::Single(rows),
                           {6, 7, 8, 9, 10, 11}, {0, 4}));
      bool reprojected = false;
      ColumnarBatch merged =
          ColumnarBatch::Concat(&parts, nullptr, &reprojected);
      EXPECT_EQ(merged.borrowed(), one_source);
      EXPECT_EQ(reprojected, ranked);
      if (one_source) {
        EXPECT_EQ(merged.backing().ids,
                  (std::vector<uint32_t>{5, 1, 3, 6, 10}));
      }
      const std::vector<Row> decoded = merged.Decode();
      ASSERT_EQ(decoded.size(), expected.size());
      for (uint32_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(RowToString(decoded[i]), RowToString(expected[i]));
        for (uint32_t j = 0; j < expected.size(); ++j) {
          EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kComplete),
                    reference->Compare(i, j, NullSemantics::kComplete))
              << i << " vs " << j;
        }
      }
    }
  }
}

TEST(ColumnarBatchTest, ConcatReRanksVarcharDictionaries) {
  // The same string gets different codes in independently built matrices;
  // concat must re-rank the gathered rows so cross-partition DIFF equality
  // still holds.
  std::vector<BoundDimension> dims{{0, SkylineGoal::kMin},
                                   {1, SkylineGoal::kDiff}};
  const std::vector<Row> part1 = {{Value::Double(1), Value::String("red")},
                                  {Value::Double(2), Value::String("blue")}};
  const std::vector<Row> part2 = {{Value::Double(3), Value::String("blue")},
                                  {Value::Double(0.5), Value::String("red")}};
  auto b1 = ColumnarBatch::Project(part1, dims);
  auto b2 = ColumnarBatch::Project(part2, dims);
  ASSERT_TRUE(b1.ok() && b2.ok());
  std::vector<ColumnarBatch> parts;
  parts.push_back(std::move(*b1));
  parts.push_back(std::move(*b2));
  bool reprojected = false;
  ColumnarBatch merged = ColumnarBatch::Concat(&parts, nullptr, &reprojected);
  EXPECT_TRUE(reprojected);

  // Rows 0 ("red",1) vs 3 ("red",0.5): same color across partitions.
  EXPECT_EQ(merged.matrix().Compare(3, 0, NullSemantics::kComplete),
            Dominance::kLeftDominates);
  // Rows 0 ("red") vs 2 ("blue"): different colors stay incomparable.
  EXPECT_EQ(merged.matrix().Compare(0, 2, NullSemantics::kComplete),
            Dominance::kIncomparable);
}

TEST(ColumnarBatchTest, ConcatCopiesKeysWhenKeySpacesAgree) {
  // Direct keys mean the same thing in every matrix, so concat copies them
  // instead of re-projecting.
  std::vector<ColumnarBatch> parts;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    auto batch = ColumnarBatch::Project(
        RandomRows(20, 2, /*null_rate=*/0.0, 5, seed), MinDims(2));
    ASSERT_TRUE(batch.ok());
    parts.push_back(std::move(*batch));
  }
  bool reprojected = false;
  ColumnarBatch merged = ColumnarBatch::Concat(&parts, nullptr, &reprojected);
  EXPECT_FALSE(reprojected);
  EXPECT_EQ(merged.num_rows(), 40u);
  EXPECT_EQ(merged.matrix().ranked_mask(), 0u);
}

TEST(ColumnarBatchTest, ConcatReRanksWhenOnePartHasNaN) {
  // NaN in one partition only: that part is ranked, the other direct. The
  // gathered matrix must re-rank everything into one key space, drop the
  // skyline parts (re-ranked keys sum to different scores), and still
  // compare exactly like CompareRows.
  auto dims = MinDims(2);
  std::vector<Row> clean = RandomRows(30, 2, /*null_rate=*/0.0, 6, 3);
  std::vector<Row> dirty = RandomRows(30, 2, /*null_rate=*/0.0, 6, 4);
  dirty[5][0] = Value::Double(std::nan(""));
  dirty[9][1] = Value::Double(std::nan(""));
  std::vector<Row> gathered = clean;
  gathered.insert(gathered.end(), dirty.begin(), dirty.end());

  // Both parts are marked skyline parts, as LocalSkylineExec marks them.
  std::vector<ColumnarBatch> parts;
  auto clean_batch = ColumnarBatch::Project(clean, dims);
  ASSERT_TRUE(clean_batch.ok());
  ASSERT_EQ(clean_batch->matrix().ranked_mask(), 0u);
  parts.push_back(clean_batch->WithSelection(clean_batch->indices(),
                                             /*skyline_part=*/true));
  auto dirty_batch = ColumnarBatch::Project(dirty, dims);
  ASSERT_TRUE(dirty_batch.ok());
  EXPECT_EQ(dirty_batch->matrix().ranked_mask(), 3u);
  parts.push_back(dirty_batch->WithSelection(dirty_batch->indices(),
                                             /*skyline_part=*/true));

  bool reprojected = false;
  ColumnarBatch merged = ColumnarBatch::Concat(&parts, nullptr, &reprojected);
  EXPECT_TRUE(reprojected);
  EXPECT_TRUE(merged.skyline_parts().empty());
  EXPECT_EQ(merged.matrix().ranked_mask(), 3u);
  ASSERT_EQ(merged.num_rows(), gathered.size());
  const std::vector<Row> decoded = merged.Decode();
  for (uint32_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(RowToString(decoded[i]), RowToString(gathered[i]));
    for (uint32_t j = 0; j < gathered.size(); ++j) {
      EXPECT_EQ(merged.matrix().Compare(i, j, NullSemantics::kComplete),
                CompareRows(gathered[i], gathered[j], dims,
                            NullSemantics::kComplete));
    }
  }
}

// Local skylines marked as skyline parts gather into an identity view in
// which each part is a contiguous run of matrix rows, still ascending in
// Score — what the global [merge] reads its peers' keys from in place. A
// part without the mark and a re-ranking gather both drop the parts.
TEST(ColumnarBatchTest, ConcatKeepsSkylinePartBoundaries) {
  const auto dims = MinDims(3);
  auto gather = [&](bool mark_all, bool nan) {
    std::vector<ColumnarBatch> parts;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      // The third partition is empty.
      std::vector<Row> rows =
          seed == 3 ? std::vector<Row>{} : AntiCorrelatedRows(50, 3, seed);
      if (nan && seed == 4) rows[0][1] = Value::Double(std::nan(""));
      auto batch = ColumnarBatch::Project(rows, dims);
      SL_CHECK(batch.ok());
      auto local =
          ColumnarBlockNestedLoop(batch->matrix(), batch->indices(), {});
      SL_CHECK(local.ok());
      SortInSfsOrder(batch->matrix(), &*local);
      parts.push_back(batch->WithSelection(*local, mark_all || seed != 2));
    }
    std::vector<uint32_t> expected = {0};
    for (const ColumnarBatch& part : parts) {
      expected.push_back(expected.back() +
                         static_cast<uint32_t>(part.num_rows()));
    }
    return std::make_pair(ColumnarBatch::Concat(&parts), expected);
  };

  const auto [merged, expected] = gather(true, false);
  ASSERT_EQ(merged.skyline_parts(), expected);
  const DominanceMatrix& matrix = merged.matrix();
  for (size_t j = 0; j + 1 < expected.size(); ++j) {
    for (uint32_t p = expected[j] + 1; p < expected[j + 1]; ++p) {
      EXPECT_EQ(merged.indices()[p], merged.indices()[p - 1] + 1);
      EXPECT_LE(matrix.Score(merged.indices()[p - 1]),
                matrix.Score(merged.indices()[p]));
    }
  }
  EXPECT_TRUE(gather(false, false).first.skyline_parts().empty());
  EXPECT_TRUE(gather(true, true).first.skyline_parts().empty());
}

// WithSelection builds its result from the parent's shared parts only: the
// result reads the parent's matrix and backing under the parent's one
// reservation, with the skyline parts it asks for — on a live batch and on
// an expiring one alike.
TEST(ColumnarBatchTest, WithSelectionSharesMatrixAndReservation) {
  MemoryTracker tracker;
  const std::vector<Row> rows = RandomRows(50, 3, /*null_rate=*/0.0, 6, 23);
  std::optional<ColumnarBatch> moved;
  int64_t charged = 0;
  {
    auto batch = ColumnarBatch::Project(rows, MinDims(3), &tracker);
    ASSERT_TRUE(batch.ok());
    charged = tracker.current_bytes();
    ColumnarBatch part =
        batch->WithSelection({4, 1, 7}, /*skyline_part=*/true);
    EXPECT_EQ(&part.matrix(), &batch->matrix());
    EXPECT_EQ(part.backing().ids, batch->backing().ids);
    EXPECT_EQ(part.indices(), (std::vector<uint32_t>{4, 1, 7}));
    EXPECT_EQ(part.skyline_parts(), (std::vector<uint32_t>{0, 3}));
    EXPECT_EQ(batch->num_rows(), 50u) << "the parent keeps its view";
    EXPECT_EQ(tracker.current_bytes(), charged);

    moved = std::move(part).WithSelection({7});
    EXPECT_EQ(&moved->matrix(), &batch->matrix());
    EXPECT_EQ(moved->indices(), (std::vector<uint32_t>{7}));
    EXPECT_TRUE(moved->skyline_parts().empty());
    EXPECT_EQ(RowToString(moved->Decode()[0]), RowToString(rows[7]));
    EXPECT_EQ(tracker.current_bytes(), charged);
  }
  EXPECT_EQ(tracker.current_bytes(), charged)
      << "the result keeps the parent's reservation";
  moved.reset();
  EXPECT_EQ(tracker.current_bytes(), 0);
}

TEST(ColumnarBatchTest, MatrixMemoryChargedForBatchLifetime) {
  MemoryTracker tracker;
  const std::vector<Row> rows = RandomRows(200, 4, /*null_rate=*/0.1, 6, 17);
  {
    auto batch = ColumnarBatch::Project(rows, MinDims(4), &tracker);
    ASSERT_TRUE(batch.ok());
    EXPECT_GT(batch->matrix().MemoryBytes(), 0);
    EXPECT_GE(tracker.current_bytes(), batch->matrix().MemoryBytes());
    // Views share the reservation: copying them must not double-charge.
    ColumnarBatch view = batch->WithSelection({1, 2, 3});
    EXPECT_EQ(tracker.current_bytes(), batch->matrix().MemoryBytes());
  }
  EXPECT_EQ(tracker.current_bytes(), 0) << "reservation must die with the batch";
}

// --- SaLSa-style early termination ------------------------------------------

std::vector<Row> SfsWith(const std::vector<Row>& rows,
                         const std::vector<BoundDimension>& dims, bool distinct,
                         EarlyStopStats* stats = nullptr) {
  SkylineOptions options;
  options.distinct = distinct;
  options.early_stop = stats;
  auto result = ColumnarSkyline(SkylineKernel::kSortFilterSkyline, rows, dims,
                                options);
  SL_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

TEST(SfsEarlyStop, ResultMatchesBnlAcrossDistributions) {
  struct Workload {
    const char* name;
    std::vector<Row> rows;
  };
  const std::vector<Workload> workloads = {
      {"correlated", CorrelatedRows(800, 4, 7)},
      {"anticorrelated", AntiCorrelatedRows(800, 4, 7)},
      {"duplicates", RandomRows(400, 3, /*null_rate=*/0.0, 3, 7)},
  };
  for (const auto& w : workloads) {
    const size_t num_dims = w.rows[0].size();
    auto dims = MinDims(num_dims);
    dims[1].goal = SkylineGoal::kMax;  // exercise the negated-key path
    for (const bool distinct : {false, true}) {
      SkylineOptions options;
      options.distinct = distinct;
      auto bnl = ColumnarSkyline(SkylineKernel::kBlockNestedLoop, w.rows, dims,
                                 options);
      ASSERT_TRUE(bnl.ok());
      const std::vector<Row> stopped = SfsWith(w.rows, dims, distinct);
      EXPECT_EQ(Sorted(stopped), Sorted(*bnl))
          << w.name << " distinct=" << distinct;
      EXPECT_EQ(Sorted(stopped),
                Sorted(BruteForceSkyline(w.rows, dims, options)));
    }
  }
}

TEST(SfsEarlyStop, SkipsMostRowsOnCorrelatedData) {
  const std::vector<Row> rows = CorrelatedRows(2000, 4, 11);
  const auto dims = MinDims(4);
  EarlyStopStats stats;
  SfsWith(rows, dims, false, &stats);
  EXPECT_GE(stats.stops.load(), 1);
  EXPECT_GT(stats.rows_skipped.load(), static_cast<int64_t>(rows.size()) / 3)
      << "the minC stop point must skip >1/3 of a correlated input";
}

TEST(SfsEarlyStop, StoppedPassMatchesOracle) {
  // All-MIN goals: with a MAX goal mixed in, a correlated generator is
  // anti-correlated in normalized space and the stop (correctly) never
  // fires. Goal mixes are covered by the equivalence sweep above.
  const std::vector<Row> rows = CorrelatedRows(1500, 3, 23);
  const auto dims = MinDims(3);
  EarlyStopStats stats;
  const std::vector<Row> stopped = SfsWith(rows, dims, false, &stats);
  EXPECT_EQ(Sorted(stopped), Sorted(BruteForceSkyline(rows, dims, {})));
  EXPECT_GT(stats.rows_skipped.load(), 0)
      << "the stop must fire on correlated data";
}

TEST(SfsEarlyStop, AutoDisabledOnNullBitmaps) {
  // NULL key slots hold placeholders, so coordinate bounds are unsound;
  // the stop must silently disable itself (stats stay zero) while the SFS
  // fast path itself keeps running.
  std::vector<Row> rows = CorrelatedRows(500, 3, 31);
  rows[497][1] = Value::Null(DataType::Double());
  const auto dims = MinDims(3);
  auto matrix = DominanceMatrix::Build(rows, dims);
  ASSERT_TRUE(matrix.ok());
  ASSERT_TRUE(matrix->has_nulls());
  EarlyStopStats stats;
  SkylineOptions options;
  options.early_stop = &stats;
  auto result =
      ColumnarSortFilterSkyline(*matrix, AllIndices(*matrix), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.stops.load(), 0);
  EXPECT_EQ(stats.rows_skipped.load(), 0);
}

// --- exact SFS order and stop bound -------------------------------------------

// Score is a rounded sum: (1e17, 1) dominates (1e17, 2), yet both score
// 1e17. Broken by input order alone, the tie put the victim first, and the
// grow-only window never evicts. The lexicographic tie-break puts every
// dominator first in the presort.
TEST(SfsOrderTest, DominatorTyingItsVictimsScoreSortsFirst) {
  const std::vector<Row> rows{R({1e17, 2}), R({1e17, 1})};
  auto matrix = DominanceMatrix::Build(rows, MinDims(2));
  ASSERT_TRUE(matrix.ok());
  ASSERT_EQ(matrix->Score(0), matrix->Score(1));
  std::vector<uint32_t> order = {0, 1};
  SortInSfsOrder(*matrix, &order);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 0}));
  auto sfs = ColumnarSortFilterSkyline(*matrix, {0, 1}, {});
  ASSERT_TRUE(sfs.ok());
  EXPECT_EQ(*sfs, std::vector<uint32_t>{1});
}

// The sum stop used to compare one rounded sum with another: here it fired
// before row 2, whose d1 is the best of all, and dropped it. The stop now
// fires only once every remaining row's smallest key exceeds minC.
TEST(SfsEarlyStop, SumStopNeverDropsASkylineRow) {
  const std::vector<Row> rows{
      R({9007199254740990, 1e17}),           R({-7, 30000000000000012}),
      R({-1.0000000000000002e17, -5}),       R({99999999999999984, 1}),
      R({13, 18}),                           R({-9, 29999999999999984})};
  const std::vector<BoundDimension> dims{{0, SkylineGoal::kMax},
                                         {1, SkylineGoal::kMin}};
  const std::vector<Row> expected = BruteForceSkyline(rows, dims, {});
  ASSERT_EQ(expected.size(), 2u);
  auto sfs = ColumnarSkyline(SkylineKernel::kSortFilterSkyline, rows, dims, {});
  ASSERT_TRUE(sfs.ok());
  EXPECT_EQ(Sorted(*sfs), Sorted(expected));
}

// --- the parallel global merge: ColumnarValidateAgainstPeers ------------------

/// Rows (id, a, b, s, k): `a` mixes ±inf into small integers, `b` is a
/// small integer, `s` a short VARCHAR (always ranked) and `k` a
/// low-cardinality key for DIFF goals. Low cardinalities force duplicates.
std::vector<Row> MergeRows(size_t n, uint64_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> a_pool = {-inf, inf, 0, 1, 2, 3};
  const std::vector<std::string> s_pool = {"a", "b", "c"};
  Rng rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {Value::Int64(static_cast<int64_t>(i)),
         Value::Double(a_pool[static_cast<size_t>(rng.UniformInt(0, 5))]),
         Value::Double(static_cast<double>(rng.UniformInt(0, 4))),
         Value::String(s_pool[static_cast<size_t>(rng.UniformInt(0, 2))]),
         Value::Double(static_cast<double>(rng.UniformInt(0, 1)))});
  }
  return rows;
}

/// The parallel merge over the contiguous parts [bounds[i], bounds[i+1])
/// of `rows`: each part's local skyline (BNL) in SFS order, packed,
/// validated against every other part; survivors in part order.
Result<std::vector<Row>> MergeParts(const std::vector<Row>& rows,
                                    const std::vector<BoundDimension>& dims,
                                    const std::vector<size_t>& bounds,
                                    const SkylineOptions& options) {
  SL_ASSIGN_OR_RETURN(DominanceMatrix matrix,
                      DominanceMatrix::Build(rows, dims));
  const size_t parts = bounds.size() - 1;
  std::vector<std::vector<uint32_t>> local(parts);
  std::vector<BlockedKeys> packed(parts);
  for (size_t i = 0; i < parts; ++i) {
    std::vector<uint32_t> slice;
    for (size_t r = bounds[i]; r < bounds[i + 1]; ++r) {
      slice.push_back(static_cast<uint32_t>(r));
    }
    SL_ASSIGN_OR_RETURN(local[i],
                        ColumnarBlockNestedLoop(matrix, slice, options));
    SortInSfsOrder(matrix, &local[i]);
    packed[i] = PackKeys(matrix, local[i]);
  }
  std::vector<uint32_t> survivors;
  for (size_t i = 0; i < parts; ++i) {
    std::vector<PeerKeys> peers;
    for (size_t j = 0; j < parts; ++j) {
      if (j != i) peers.push_back({&local[j], &packed[j], j < i});
    }
    SL_ASSIGN_OR_RETURN(
        std::vector<uint32_t> kept,
        ColumnarValidateAgainstPeers(matrix, local[i], peers, options));
    survivors.insert(survivors.end(), kept.begin(), kept.end());
  }
  return MaterializeRows(rows, survivors);
}

// Over random contiguous parts (empty ones included), the merge must equal
// BruteForceSkyline and one BNL over all rows — rows compared whole, ids
// included, so under DISTINCT the kept duplicate must be the first one —
// on direct, ranked (±inf, VARCHAR) and DIFF dimensions.
TEST(ValidateAgainstPeersTest, MatchesBnlAndBruteForceOverRandomParts) {
  const std::vector<std::vector<BoundDimension>> dim_sets = {
      {{1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}},
      {{2, SkylineGoal::kMin}, {4, SkylineGoal::kMin}},
      {{1, SkylineGoal::kMax}, {2, SkylineGoal::kMin}, {4, SkylineGoal::kDiff}},
      {{2, SkylineGoal::kMin}, {3, SkylineGoal::kMax}, {4, SkylineGoal::kDiff}},
      {{1, SkylineGoal::kMin},
       {2, SkylineGoal::kMin},
       {3, SkylineGoal::kMin},
       {4, SkylineGoal::kMax}},
  };
  Rng rng(2024);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<Row> rows =
        MergeRows(static_cast<size_t>(rng.UniformInt(1, 60)), seed);
    std::vector<size_t> bounds = {0, rows.size()};
    const int64_t cuts = rng.UniformInt(0, 4);
    for (int64_t c = 0; c < cuts; ++c) {
      bounds.push_back(
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(rows.size()))));
    }
    std::sort(bounds.begin(), bounds.end());
    for (const auto& dims : dim_sets) {
      for (const bool distinct : {false, true}) {
        SkylineOptions options;
        options.distinct = distinct;
        auto merged = MergeParts(rows, dims, bounds, options);
        ASSERT_TRUE(merged.ok()) << merged.status().ToString();
        auto bnl =
            ColumnarSkyline(SkylineKernel::kBlockNestedLoop, rows, dims, options);
        ASSERT_TRUE(bnl.ok());
        const std::string where = StrCat("seed=", seed, " parts=",
                                         bounds.size() - 1, " dims=",
                                         dims.size(), " distinct=", distinct);
        EXPECT_EQ(Sorted(*merged), Sorted(*bnl)) << where;
        EXPECT_EQ(Sorted(*merged), Sorted(BruteForceSkyline(rows, dims, options)))
            << where;
      }
    }
  }
}

// Every test is counted, and the score bound skips most pairs: on
// anti-correlated parts the merge runs fewer tests than comparing every
// candidate with every peer row.
TEST(ValidateAgainstPeersTest, CountsTestsAndSkipsHigherScores) {
  const std::vector<Row> rows = AntiCorrelatedRows(2000, 4, 61);
  auto matrix = DominanceMatrix::Build(rows, MinDims(4));
  ASSERT_TRUE(matrix.ok());
  std::vector<std::vector<uint32_t>> local(2);
  for (uint32_t r = 0; r < rows.size(); ++r) local[r % 2].push_back(r);
  for (auto& part : local) {
    auto sky = ColumnarBlockNestedLoop(*matrix, part, {});
    ASSERT_TRUE(sky.ok());
    part = *sky;
    SortInSfsOrder(*matrix, &part);
  }
  const BlockedKeys peer = PackKeys(*matrix, local[1]);
  DominanceCounter counter;
  SkylineOptions options;
  options.counter = &counter;
  auto kept = ColumnarValidateAgainstPeers(*matrix, local[0],
                                           {{&local[1], &peer, false}}, options);
  ASSERT_TRUE(kept.ok());
  EXPECT_GT(counter.tests.load(), 0);
  EXPECT_LT(counter.tests.load(),
            static_cast<int64_t>(local[0].size() * local[1].size()));
}

// --- the block scans against their per-pair transcriptions --------------------

/// The SFS filter pass transcribed per pair: SFS order, the SaLSa stop
/// bound, and a window scanned one CompareKeySpansCompleteScalar at a time.
std::vector<uint32_t> ReferenceSfs(const DominanceMatrix& matrix,
                                   const SkylineOptions& options,
                                   int64_t* tests) {
  std::vector<uint32_t> ordered = AllIndices(matrix);
  SortInSfsOrder(matrix, &ordered);
  std::vector<double> remaining_min(ordered.size() + 1,
                                    std::numeric_limits<double>::infinity());
  for (size_t pos = ordered.size(); pos-- > 0;) {
    remaining_min[pos] =
        std::min(remaining_min[pos + 1], matrix.MinKey(ordered[pos]));
  }
  double min_c = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> window;
  for (size_t pos = 0; pos < ordered.size(); ++pos) {
    if (remaining_min[pos] > min_c) break;
    const double* keys = matrix.row_keys(ordered[pos]);
    bool eliminated = false;
    for (const uint32_t w : window) {
      ++*tests;
      const Dominance dom = CompareKeySpansCompleteScalar(
          matrix.row_keys(w), keys, matrix.num_dims());
      if (dom == Dominance::kLeftDominates ||
          (dom == Dominance::kEqual && options.distinct)) {
        eliminated = true;
        break;
      }
    }
    if (!eliminated) {
      window.push_back(ordered[pos]);
      min_c = std::min(min_c, matrix.MaxKey(ordered[pos]));
    }
  }
  return window;
}

// The SFS pass scans its window a block at a time, yet keeps the per-pair
// pass's window, in order, with its test count: ties and duplicates,
// windows of every size mod 4, the stop bound firing or not.
TEST(BlockScanTest, SfsPassMatchesPerPairPass) {
  const std::vector<std::vector<Row>> inputs = {
      CorrelatedRows(600, 4, 3),      AntiCorrelatedRows(600, 4, 3),
      AntiCorrelatedRows(300, 6, 5),  RandomRows(400, 3, 0.0, 3, 9),
      RandomRows(200, 2, 0.0, 12, 4), RandomRows(5, 5, 0.0, 2, 1)};
  for (size_t n = 0; n < inputs.size(); ++n) {
    for (const bool distinct : {false, true}) {
      SCOPED_TRACE(StrCat("input ", n, " distinct=", distinct));
      auto dims = MinDims(inputs[n][0].size());
      dims[1].goal = SkylineGoal::kMax;
      auto matrix = DominanceMatrix::Build(inputs[n], dims);
      ASSERT_TRUE(matrix.ok());
      ASSERT_TRUE(matrix->all_numeric_minmax());
      SkylineOptions options;
      options.distinct = distinct;
      int64_t reference_tests = 0;
      const std::vector<uint32_t> reference =
          ReferenceSfs(*matrix, options, &reference_tests);
      DominanceCounter counter;
      options.counter = &counter;
      auto sfs = ColumnarSortFilterSkyline(*matrix, AllIndices(*matrix),
                                           options);
      ASSERT_TRUE(sfs.ok());
      EXPECT_EQ(*sfs, reference);
      EXPECT_EQ(counter.tests.load(), reference_tests);
    }
  }
}

/// ColumnarValidateAgainstPeers transcribed per pair: each peer (rows in
/// SFS order, and whether it is earlier) is scanned row by row while its row
/// is ahead of the candidate in SFS order, with CompareKeySpans.
std::vector<uint32_t> ReferenceValidate(
    const DominanceMatrix& matrix, const std::vector<uint32_t>& candidates,
    const std::vector<std::pair<std::vector<uint32_t>, bool>>& peers,
    const SkylineOptions& options, int64_t* tests) {
  const size_t d = matrix.num_dims();
  auto lex_less = [&](const double* a, const double* b) {
    return std::lexicographical_compare(a, a + d, b, b + d);
  };
  std::vector<uint32_t> survivors;
  for (const uint32_t c : candidates) {
    const double* keys = matrix.row_keys(c);
    bool eliminated = false;
    for (const auto& [rows, earlier] : peers) {
      const bool ties = options.distinct && earlier;
      for (const uint32_t r : rows) {
        const double* pkeys = matrix.row_keys(r);
        const bool ahead =
            matrix.Score(r) < matrix.Score(c) ||
            (matrix.Score(r) == matrix.Score(c) &&
             (ties ? !lex_less(keys, pkeys) : lex_less(pkeys, keys)));
        if (!ahead) break;
        ++*tests;
        const Dominance dom =
            CompareKeySpans(pkeys, keys, d, matrix.diff_mask(), 0);
        if (dom == Dominance::kLeftDominates ||
            (dom == Dominance::kEqual && ties)) {
          eliminated = true;
          break;
        }
      }
      if (eliminated) break;
    }
    if (!eliminated) survivors.push_back(c);
  }
  return survivors;
}

// The validate scan reads each peer's prefix a block at a time, yet keeps
// the per-pair scan's survivors, in order, with its test count: random
// parts over direct, ranked and DIFF dimensions, and earlier peers' ties
// under DISTINCT.
TEST(BlockScanTest, ValidateMatchesPerPairScan) {
  const std::vector<std::vector<BoundDimension>> dim_sets = {
      {{1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}},
      {{1, SkylineGoal::kMax}, {2, SkylineGoal::kMin}, {4, SkylineGoal::kDiff}},
      {{2, SkylineGoal::kMin}, {3, SkylineGoal::kMax}, {4, SkylineGoal::kDiff}},
      {{1, SkylineGoal::kMin},
       {2, SkylineGoal::kMin},
       {3, SkylineGoal::kMin},
       {4, SkylineGoal::kMax}},
  };
  Rng rng(99);
  int64_t tests_seen = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const std::vector<Row> rows =
        MergeRows(static_cast<size_t>(rng.UniformInt(1, 80)), seed);
    const size_t parts = static_cast<size_t>(rng.UniformInt(2, 4));
    for (const auto& dims : dim_sets) {
      auto matrix = DominanceMatrix::Build(rows, dims);
      ASSERT_TRUE(matrix.ok());
      // Round-robin parts, each reduced to its skyline in SFS order.
      std::vector<std::vector<uint32_t>> local(parts);
      for (uint32_t r = 0; r < rows.size(); ++r) local[r % parts].push_back(r);
      std::vector<BlockedKeys> packed;
      for (auto& part : local) {
        auto sky = ColumnarBlockNestedLoop(*matrix, part, {});
        ASSERT_TRUE(sky.ok());
        part = *sky;
        SortInSfsOrder(*matrix, &part);
        packed.push_back(PackKeys(*matrix, part));
      }
      for (const bool distinct : {false, true}) {
        SCOPED_TRACE(StrCat("seed=", seed, " dims=", dims.size(),
                            " distinct=", distinct));
        for (size_t i = 0; i < parts; ++i) {
          std::vector<PeerKeys> peers;
          std::vector<std::pair<std::vector<uint32_t>, bool>> reference_peers;
          for (size_t j = 0; j < parts; ++j) {
            if (j == i) continue;
            peers.push_back({&local[j], &packed[j], j < i});
            reference_peers.push_back({local[j], j < i});
          }
          SkylineOptions options;
          options.distinct = distinct;
          int64_t reference_tests = 0;
          const std::vector<uint32_t> reference = ReferenceValidate(
              *matrix, local[i], reference_peers, options, &reference_tests);
          DominanceCounter counter;
          options.counter = &counter;
          auto kept =
              ColumnarValidateAgainstPeers(*matrix, local[i], peers, options);
          ASSERT_TRUE(kept.ok());
          EXPECT_EQ(*kept, reference);
          EXPECT_EQ(counter.tests.load(), reference_tests);
          tests_seen += reference_tests;
        }
      }
    }
  }
  EXPECT_GT(tests_seen, 1000);
}

// --- the streamed local skyline ----------------------------------------------

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// (id BIGINT, a DOUBLE, b BIGINT, c BOOLEAN, e DOUBLE, s VARCHAR) over
/// `n` rows, several chunks when n > kChunkRows. The value columns draw
/// from a few dozen values, so rows tie and repeat; `a` holds both zeros,
/// `b` a few ±2^53, and `s` is NULL throughout. With `null_rate` > 0 the
/// value columns are nullable and that share of their values is NULL.
TablePtr MixedTable(size_t n, double null_rate, uint64_t seed) {
  const bool nullable = null_rate > 0;
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"a", DataType::Double(), nullable},
                 Field{"b", DataType::Int64(), nullable},
                 Field{"c", DataType::Bool(), nullable},
                 Field{"e", DataType::Double(), nullable},
                 Field{"s", DataType::String(), true}});
  auto table = std::make_shared<Table>("mixed", std::move(schema));
  table->Reserve(n);
  Rng rng(seed);
  auto maybe_null = [&](Value v) {
    return nullable && rng.Bernoulli(null_rate) ? Value::Null(v.type()) : v;
  };
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = rng.UniformInt(0, 30);
    const int64_t b = rng.Bernoulli(0.01) ? (rng.Bernoulli(0.5) ? kTwo53 : -kTwo53)
                                          : rng.UniformInt(0, 30);
    table->AppendRowUnchecked(
        {Value::Int64(static_cast<int64_t>(i)),
         maybe_null(Value::Double(a == 0 && i % 2 == 0
                                      ? -0.0
                                      : static_cast<double>(a))),
         maybe_null(Value::Int64(b)), maybe_null(Value::Bool(rng.Bernoulli(0.5))),
         maybe_null(Value::Double(static_cast<double>(rng.UniformInt(0, 30)) / 4)),
         Value::Null(DataType::String())});
  }
  return table;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> ids(n);
  for (uint32_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

RowView ViewOf(const TablePtr& table, std::vector<uint32_t> ids,
               std::vector<size_t> columns) {
  return RowView{std::shared_ptr<const ChunkedRows>(table, &table->rows()),
                 std::move(ids), std::move(columns)};
}

/// What a local skyline hands the exchange, read through its view: each
/// survivor's row, keys and null bitmap, in output order, and the tests it
/// counted.
struct LocalOutput {
  std::vector<std::string> rows;
  std::vector<double> keys;
  std::vector<uint32_t> nulls;
  bool has_nulls = false;
  bool numeric = false;
  int64_t tests = 0;
};

LocalOutput Output(const ColumnarBatch& batch, int64_t tests) {
  LocalOutput out;
  const DominanceMatrix& m = batch.matrix();
  for (const Row& row : batch.Decode()) out.rows.push_back(RowToString(row));
  for (const uint32_t r : batch.indices()) {
    out.keys.insert(out.keys.end(), m.row_keys(r), m.row_keys(r) + m.num_dims());
    out.nulls.push_back(m.null_bitmap(r));
  }
  out.has_nulls = m.has_nulls();
  out.numeric = m.all_numeric_minmax();
  out.tests = tests;
  return out;
}

/// The matrix path the local stage ran before it streamed: Build over the
/// view, BNL (one pass per bitmap group under incomplete semantics), the
/// survivors in SFS order (per group, groups in ascending bitmap order).
LocalOutput MatrixLocal(const RowView& view,
                        const std::vector<BoundDimension>& dims,
                        SkylineOptions options) {
  DominanceCounter counter;
  options.counter = &counter;
  auto batch = ColumnarBatch::Project(view, dims);
  SL_CHECK(batch.ok()) << batch.status().ToString();
  auto survivors = RunColumnarKernel(SkylineKernel::kBlockNestedLoop,
                                     batch->matrix(), batch->indices(), options);
  SL_CHECK(survivors.ok()) << survivors.status().ToString();
  std::vector<uint32_t> ordered;
  if (options.nulls == NullSemantics::kComplete) {
    ordered = *survivors;
    SortInSfsOrder(batch->matrix(), &ordered);
  } else {
    for (std::vector<uint32_t>& group :
         PartitionIndicesByNullBitmap(batch->matrix(), *survivors)) {
      SortInSfsOrder(batch->matrix(), &group);
      ordered.insert(ordered.end(), group.begin(), group.end());
    }
  }
  return Output(batch->WithSelection(ordered), counter.tests.load());
}

/// The streamed local skyline of `rows` (a RowView or owned Rows), checked
/// to be one skyline part.
template <typename Input>
LocalOutput Streamed(Input rows, const std::vector<BoundDimension>& dims,
                     SkylineOptions options, bool* compact = nullptr) {
  DominanceCounter counter;
  options.counter = &counter;
  double keying_ms = 0;
  auto batch = [&] {
    if constexpr (std::is_same_v<Input, RowView>) {
      return ColumnarBatch::LocalSkyline(std::move(rows),
                                         SkylineKernel::kBlockNestedLoop, dims,
                                         options, &keying_ms);
    } else {
      return ColumnarBatch::LocalSkyline(&rows, SkylineKernel::kBlockNestedLoop,
                                         dims, options, &keying_ms);
    }
  }();
  SL_CHECK(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->skyline_parts(),
            (std::vector<uint32_t>{0, static_cast<uint32_t>(batch->num_rows())}));
  if (compact != nullptr) {
    *compact = batch->matrix().num_rows() == batch->num_rows() &&
               batch->matrix().ranked_mask() == 0;
  }
  return Output(*batch, counter.tests.load());
}

void ExpectSameLocal(const LocalOutput& got, const LocalOutput& want) {
  EXPECT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.keys.size(), want.keys.size());
  for (size_t i = 0; i < got.keys.size(); ++i) {
    EXPECT_EQ(std::signbit(got.keys[i]), std::signbit(want.keys[i])) << i;
    EXPECT_EQ(got.keys[i], want.keys[i]) << i;
  }
  EXPECT_EQ(got.nulls, want.nulls);
  EXPECT_EQ(got.has_nulls, want.has_nulls);
  EXPECT_EQ(got.numeric, want.numeric);
  EXPECT_EQ(got.tests, want.tests);
}

// Build's keying over typed chunk words agrees bit for bit with keying the
// same rows' Values: keys (−0.0 included), null bitmaps, the numeric flag
// and which dimensions rank — through a column map and a sparse id list.
TEST(StreamedLocalSkyline, TypedKeyingMatchesValueKeying) {
  TablePtr table = MixedTable(3 * kChunkRows + 7, 0.1, 5);
  table->AppendRowUnchecked({Value::Int64(-1), Value::Double(std::nan("")),
                             Value::Int64(kTwo53 + 1), Value::Bool(true),
                             Value::Double(1), Value::String("x")});
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < table->num_rows(); ++i) {
    if (i % 3 != 1 || i + 1 == table->num_rows()) ids.push_back(i);
  }
  const RowView view = ViewOf(table, ids, {5, 4, 3, 2, 1, 0});
  const std::vector<BoundDimension> dims{{4, SkylineGoal::kMax},
                                         {3, SkylineGoal::kMin},
                                         {2, SkylineGoal::kMax},
                                         {1, SkylineGoal::kDiff},
                                         {0, SkylineGoal::kMin}};
  for (size_t width = 1; width <= dims.size(); ++width) {
    const std::vector<BoundDimension> prefix(dims.begin(), dims.begin() + width);
    auto typed = DominanceMatrix::Build(view, prefix);
    auto values = DominanceMatrix::Build(view.Materialize(), prefix);
    ASSERT_TRUE(typed.ok() && values.ok());
    ASSERT_EQ(typed->num_rows(), values->num_rows());
    EXPECT_EQ(typed->ranked_mask(), values->ranked_mask());
    EXPECT_EQ(typed->all_numeric_minmax(), values->all_numeric_minmax());
    EXPECT_EQ(typed->has_nulls(), values->has_nulls());
    for (uint32_t r = 0; r < typed->num_rows(); ++r) {
      EXPECT_EQ(typed->null_bitmap(r), values->null_bitmap(r)) << r;
      EXPECT_EQ(0, std::memcmp(typed->row_keys(r), values->row_keys(r),
                               width * sizeof(double)))
          << "row " << r << " of width " << width;
    }
  }
}

// The stream meets the same window in the same order as BNL over the whole
// matrix: same survivors, keys, bitmaps and tests, at and around the block
// and chunk boundaries, through a WHERE's id list and a column map, with
// DISTINCT, DIFF and BOOLEAN dimensions, and NULLs under both semantics.
TEST(StreamedLocalSkyline, MatchesMatrixBnlAcrossBlockBoundaries) {
  const std::vector<BoundDimension> minmax{{1, SkylineGoal::kMin},
                                           {2, SkylineGoal::kMax},
                                           {3, SkylineGoal::kMin},
                                           {4, SkylineGoal::kMin}};
  const std::vector<BoundDimension> diff{{1, SkylineGoal::kMax},
                                         {3, SkylineGoal::kDiff},
                                         {4, SkylineGoal::kMin}};
  const size_t chunked = 3 * kChunkRows;
  for (const size_t n : {size_t{1}, kKeyBlockRows - 1, kKeyBlockRows,
                         kKeyBlockRows + 1, chunked - 1, chunked, chunked + 1}) {
    for (const double null_rate : {0.0, 0.1}) {
      TablePtr table = MixedTable(n, null_rate, n + 3);
      std::vector<uint32_t> filtered;
      for (uint32_t i = 0; i < n; ++i) {
        if (i % 3 != 1) filtered.push_back(i);
      }
      // The filtered view reads (id, e, c, b, a) as (e, a, b, c, ...): view
      // column v is source column map[v].
      const std::vector<std::pair<RowView, std::vector<size_t>>> views = {
          {ViewOf(table, Iota(n), {}), {0, 1, 2, 3, 4}},
          {ViewOf(table, filtered, {4, 1, 2, 3, 0}), {4, 1, 2, 3, 0}}};
      for (const auto& [view, to_view] : views) {
        for (const auto* dims_in_table : {&minmax, &diff}) {
          std::vector<BoundDimension> dims = *dims_in_table;
          for (BoundDimension& dim : dims) {
            // The view column that reads table column dim.ordinal.
            dim.ordinal = static_cast<size_t>(
                std::find(to_view.begin(), to_view.end(), dim.ordinal) -
                to_view.begin());
          }
          for (const bool distinct : {false, true}) {
            for (const NullSemantics nulls :
                 {NullSemantics::kComplete, NullSemantics::kIncomplete}) {
              if (null_rate == 0 && nulls == NullSemantics::kIncomplete) {
                continue;
              }
              SCOPED_TRACE(StrCat("n=", n, " nulls=", null_rate, " view=",
                                  view.size(), " dims=", dims.size(),
                                  " distinct=", distinct, " incomplete=",
                                  nulls == NullSemantics::kIncomplete));
              SkylineOptions options;
              options.distinct = distinct;
              options.nulls = nulls;
              const LocalOutput want = MatrixLocal(view, dims, options);
              bool compact = false;
              ExpectSameLocal(Streamed(view, dims, options, &compact), want);
              EXPECT_TRUE(compact) << "a direct stream keeps only its window";
              ExpectSameLocal(Streamed(view.Materialize(), dims, options),
                              want);
            }
          }
        }
      }
    }
  }
}

// A value with no exact double image in the last block voids the stream:
// the partition's answer and test count are the matrix path's, counted
// once, for borrowed and owned rows alike.
TEST(StreamedLocalSkyline, RankedValueInLastBlockFallsBackCountedOnce) {
  struct Case {
    const char* name;
    size_t column;
    Value value;
  };
  const std::vector<Case> cases = {
      {"NaN", 1, Value::Double(std::nan(""))},
      {"+inf", 4, Value::Double(std::numeric_limits<double>::infinity())},
      {"2^53 + 1", 2, Value::Int64(kTwo53 + 1)},
      {"VARCHAR", 5, Value::String("last")}};
  const size_t n = 3 * kKeyBlockRows - 40;
  for (const Case& c : cases) {
    for (const NullSemantics nulls :
         {NullSemantics::kComplete, NullSemantics::kIncomplete}) {
      SCOPED_TRACE(StrCat(c.name, nulls == NullSemantics::kComplete
                                      ? " complete"
                                      : " incomplete"));
      TablePtr table = MixedTable(n, 0.05, 77);
      Row last = table->rows()[n - 1];
      last[c.column] = c.value;
      table->AppendRowUnchecked(last);
      const RowView view = ViewOf(table, Iota(n + 1), {});
      const std::vector<BoundDimension> dims{{1, SkylineGoal::kMin},
                                             {2, SkylineGoal::kMin},
                                             {4, SkylineGoal::kMax},
                                             {5, SkylineGoal::kMin}};
      SkylineOptions options;
      options.nulls = nulls;
      const LocalOutput want = MatrixLocal(view, dims, options);
      ASSERT_GT(want.tests, 0);
      bool compact = true;
      ExpectSameLocal(Streamed(view, dims, options, &compact), want);
      EXPECT_FALSE(compact) << "the fallback keeps the whole matrix";
      ExpectSameLocal(Streamed(view.Materialize(), dims, options), want);
    }
  }
}

// A deadline and a cancelled token stop a streamed local stage from inside
// its window scan.
TEST(StreamedLocalSkyline, DeadlineAndCancelStopTheStream) {
  const std::vector<Row> rows = AntiCorrelatedRows(3000, 4, 3);
  auto source = ChunkedRows::Single(rows);
  for (const bool cancel : {false, true}) {
    CancellationToken token;
    SkylineOptions options;
    if (cancel) {
      token.Cancel();
      options.cancel = &token;
    } else {
      options.deadline_nanos = 1;
    }
    double keying_ms = 0;
    auto batch = ColumnarBatch::LocalSkyline(
        RowView::All(source), SkylineKernel::kBlockNestedLoop, MinDims(4),
        options, &keying_ms);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(),
              cancel ? StatusCode::kCancelled : StatusCode::kTimeout);
  }
}

// The stream charges its key block and window as they grow: a limit below
// the window stops it with ResourceExhausted, and every charge returns.
TEST(StreamedLocalSkyline, WindowChargesTheTrackerAndHonorsTheLimit) {
  const std::vector<Row> rows = AntiCorrelatedRows(20000, 4, 9);
  auto source = ChunkedRows::Single(rows);
  MemoryTracker tracker;
  SkylineOptions options;
  options.memory = &tracker;
  double keying_ms = 0;
  int64_t window_bytes = 0;
  {
    auto batch = ColumnarBatch::LocalSkyline(
        RowView::All(source), SkylineKernel::kBlockNestedLoop, MinDims(4),
        options, &keying_ms);
    ASSERT_TRUE(batch.ok());
    window_bytes = static_cast<int64_t>(batch->num_rows() * 4 * sizeof(double));
    EXPECT_GT(keying_ms, 0.0);
    EXPECT_GE(tracker.peak_bytes(),
              window_bytes + static_cast<int64_t>(kKeyBlockRows * 4 *
                                                  sizeof(double)));
    EXPECT_EQ(tracker.current_bytes(), batch->matrix().MemoryBytes())
        << "only the compact matrix stays charged";
  }
  EXPECT_EQ(tracker.current_bytes(), 0);

  // A limit one byte below the peak refuses the window's last growth.
  const int64_t peak = tracker.peak_bytes();
  tracker.Reset();
  tracker.set_limit_bytes(peak - 1);
  auto limited = ColumnarBatch::LocalSkyline(
      RowView::All(source), SkylineKernel::kBlockNestedLoop, MinDims(4),
      options, &keying_ms);
  ASSERT_FALSE(limited.ok());
  EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted)
      << limited.status().ToString();
  EXPECT_EQ(tracker.current_bytes(), 0);
}

// --- deadline coverage: every kernel must return Timeout ---------------------

class ColumnarKernelDeadline : public ::testing::Test {
 protected:
  void SetUp() override {
    rows_ = AntiCorrelatedRows(600, 4, 3);
    auto matrix = DominanceMatrix::Build(rows_, MinDims(4));
    ASSERT_TRUE(matrix.ok());
    matrix_ = std::move(matrix).MoveValue();
    // A deadline in the past: the kernels' batched checker trips on its
    // first clock read (after at most 1024 ticks).
    expired_.deadline_nanos = 1;
  }

  std::vector<Row> rows_;
  std::optional<DominanceMatrix> matrix_;
  SkylineOptions expired_;
};

#define EXPECT_TIMES_OUT(expr)                                     \
  do {                                                             \
    auto _result = (expr);                                         \
    ASSERT_FALSE(_result.ok()) << "kernel ignored the deadline";   \
    EXPECT_EQ(_result.status().code(), StatusCode::kTimeout);      \
  } while (0)

TEST_F(ColumnarKernelDeadline, BlockNestedLoop) {
  EXPECT_TIMES_OUT(
      ColumnarBlockNestedLoop(*matrix_, AllIndices(*matrix_), expired_));
}

TEST_F(ColumnarKernelDeadline, SortFilterSkyline) {
  // On anti-correlated data the stop never fires (the pass runs its
  // early-stop bookkeeping for every tuple), and the loop must still
  // observe the deadline. (On data where the stop fires before the
  // checker's first clock read, finishing OK is the correct outcome — fast
  // passes need no timeout.)
  EXPECT_TIMES_OUT(
      ColumnarSortFilterSkyline(*matrix_, AllIndices(*matrix_), expired_));
}

TEST_F(ColumnarKernelDeadline, AllPairsIncomplete) {
  SkylineOptions options = expired_;
  options.nulls = NullSemantics::kIncomplete;
  EXPECT_TIMES_OUT(
      ColumnarAllPairsIncomplete(*matrix_, AllIndices(*matrix_), options));
}

TEST_F(ColumnarKernelDeadline, ValidateAgainstPeers) {
  std::vector<uint32_t> peer = AllIndices(*matrix_);
  SortInSfsOrder(*matrix_, &peer);
  const BlockedKeys keys = PackKeys(*matrix_, peer);
  EXPECT_TIMES_OUT(ColumnarValidateAgainstPeers(
      *matrix_, AllIndices(*matrix_), {{&peer, &keys, false}}, expired_));
}

TEST_F(ColumnarKernelDeadline, ValidateAgainstChunk) {
  SkylineOptions options = expired_;
  options.nulls = NullSemantics::kIncomplete;
  const std::vector<uint32_t> all = AllIndices(*matrix_);
  EXPECT_TIMES_OUT(ColumnarValidateAgainstChunk(*matrix_, all, all, options));
}

#undef EXPECT_TIMES_OUT

// A cancel that arrives while a block kernel is scanning, in the middle of
// some block, stops it at a later once-per-block poll: BNL, the SFS pass
// and the validate scan each return Cancelled long before they would
// finish (each runs for seconds uncancelled).
TEST(ColumnarKernelCancel, CancelArrivingMidScanStopsEveryBlockKernel) {
  const std::vector<Row> rows = AntiCorrelatedRows(20000, 8, 13);
  auto matrix = DominanceMatrix::Build(rows, MinDims(8));
  ASSERT_TRUE(matrix.ok());
  const std::vector<uint32_t> all = AllIndices(*matrix);
  std::vector<uint32_t> by_score = all;
  SortInSfsOrder(*matrix, &by_score);
  const BlockedKeys peer = PackKeys(*matrix, by_score);
  using Kernel = std::function<Result<std::vector<uint32_t>>(
      const SkylineOptions&)>;
  const std::vector<std::pair<const char*, Kernel>> kernels = {
      {"bnl",
       [&](const SkylineOptions& o) {
         return ColumnarBlockNestedLoop(*matrix, all, o);
       }},
      {"sfs",
       [&](const SkylineOptions& o) {
         return ColumnarSortFilterSkyline(*matrix, all, o);
       }},
      {"validate", [&](const SkylineOptions& o) {
         return ColumnarValidateAgainstPeers(*matrix, by_score,
                                             {{&by_score, &peer, false}}, o);
       }}};
  for (const auto& [name, kernel] : kernels) {
    CancellationToken token;
    SkylineOptions options;
    options.cancel = &token;
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token.Cancel();
    });
    auto result = kernel(options);
    canceller.join();
    ASSERT_FALSE(result.ok()) << name << " finished before the cancel";
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << name;
  }
}

}  // namespace
}  // namespace skyline
}  // namespace sparkline
