// The configuration matrix test: every combination of execution strategy,
// kernel, partitioning scheme and executor count must produce
// the identical skyline — and that skyline must equal the brute-force
// oracle computed directly from the table. This is the strongest single
// correctness statement the engine makes — no physical-plan knob may change
// results. The encoding sweep extends it to every value shape the SQL
// surface admits (NaN, ±0.0, ±inf, BIGINT beyond 2^53, VARCHAR goals).
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "skyline/algorithms.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::Rows;
using ::sparkline::testing::RowStrings;

struct MatrixCase {
  const char* dataset;  // complete | incomplete
  size_t dims;
  bool distinct;
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrix, AllConfigurationsAgreeWithBruteForce) {
  const auto& param = GetParam();
  const bool incomplete = std::string(param.dataset) == "incomplete";

  Session session;
  TablePtr table = datagen::GeneratePoints(
      "pts", 400, param.dims, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/1234, incomplete ? 0.2 : 0.0);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  std::vector<std::string> items;
  for (size_t d = 0; d < param.dims; ++d) {
    items.push_back(StrCat("d", d, d % 2 == 0 ? " MIN" : " MAX"));
  }
  const std::string query =
      StrCat("SELECT * FROM pts SKYLINE OF ", param.distinct ? "DISTINCT " : "",
             JoinStrings(items, ", "));

  // Brute-force oracle straight from the table (column 0 is the id).
  std::vector<skyline::BoundDimension> oracle_dims;
  for (size_t d = 0; d < param.dims; ++d) {
    oracle_dims.push_back(skyline::BoundDimension{
        d + 1, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  skyline::SkylineOptions oracle_options;
  oracle_options.distinct = param.distinct;
  oracle_options.nulls = incomplete ? skyline::NullSemantics::kIncomplete
                                    : skyline::NullSemantics::kComplete;
  const std::vector<std::string> expected = RowStrings(
      skyline::BruteForceSkyline(table->rows(), oracle_dims, oracle_options));
  ASSERT_FALSE(expected.empty());

  int combinations = 0;
  const std::vector<const char*> strategies =
      incomplete ? std::vector<const char*>{"auto", "incomplete"}
                 : std::vector<const char*>{"auto", "distributed",
                                            "non_distributed", "incomplete",
                                            "reference"};
  for (const char* strategy : strategies) {
    for (const char* kernel : {"bnl", "sfs"}) {
      for (const char* partitioning : {"asis", "angle"}) {
        for (const char* executors : {"1", "3", "8"}) {
          ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
          ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
          ASSERT_OK(
              session.SetConf("sparkline.skyline.partitioning", partitioning));
          ASSERT_OK(session.SetConf("sparkline.executors", executors));
          auto rows = RowStrings(Rows(&session, query));
          ASSERT_EQ(expected, rows)
              << "strategy=" << strategy << " kernel=" << kernel
              << " partitioning=" << partitioning
              << " executors=" << executors;
          ++combinations;
        }
      }
    }
  }
  EXPECT_EQ(combinations, static_cast<int>(strategies.size()) * 2 * 2 * 3);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrix,
    ::testing::Values(MatrixCase{"complete", 1, false},
                      MatrixCase{"complete", 1, true},
                      MatrixCase{"complete", 2, false},
                      MatrixCase{"complete", 4, false},
                      MatrixCase{"complete", 3, true},
                      // The paper queries' 5 and 6 dimensions, and 9: the
                      // block kernels' compare loops past one AVX2 register
                      // of dimensions.
                      MatrixCase{"complete", 5, false},
                      MatrixCase{"complete", 6, true},
                      MatrixCase{"complete", 9, false},
                      MatrixCase{"incomplete", 1, false},
                      MatrixCase{"incomplete", 3, false},
                      MatrixCase{"incomplete", 3, true},
                      MatrixCase{"incomplete", 6, true}));

// The round-based parallel incomplete global stage: sweeping the executor
// count (including one executor, which runs the single-task stage, and one
// chunk per tuple) on NULL-heavy data must always reproduce the
// brute-force oracle — the rotation rounds may not change results under
// non-transitive dominance.
struct IncompleteParallelCase {
  size_t rows;
  size_t dims;
  bool distinct;
  double null_probability;
};

class IncompleteParallel
    : public ::testing::TestWithParam<IncompleteParallelCase> {};

TEST_P(IncompleteParallel, MatchesBruteForceOracle) {
  const auto& param = GetParam();
  Session session;
  TablePtr table = datagen::GeneratePoints(
      "pts", param.rows, param.dims, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/99, param.null_probability);
  ASSERT_OK(session.catalog()->RegisterTable(table));

  std::vector<std::string> items;
  std::vector<skyline::BoundDimension> oracle_dims;
  for (size_t d = 0; d < param.dims; ++d) {
    items.push_back(StrCat("d", d, d % 2 == 0 ? " MIN" : " MAX"));
    oracle_dims.push_back(skyline::BoundDimension{
        d + 1, d % 2 == 0 ? SkylineGoal::kMin : SkylineGoal::kMax});
  }
  const std::string query =
      StrCat("SELECT * FROM pts SKYLINE OF ", param.distinct ? "DISTINCT " : "",
             JoinStrings(items, ", "));

  skyline::SkylineOptions oracle_options;
  oracle_options.distinct = param.distinct;
  oracle_options.nulls = skyline::NullSemantics::kIncomplete;
  const std::vector<std::string> expected = RowStrings(
      skyline::BruteForceSkyline(table->rows(), oracle_dims, oracle_options));
  ASSERT_FALSE(expected.empty());

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "incomplete"));
  // The executor sweep includes param.rows, which makes the global stage
  // split into one chunk per tuple (every candidate scan is a singleton and
  // all work happens in the validation rounds).
  const std::vector<std::string> executor_counts = {
      "1", "2", "3", "8", std::to_string(param.rows)};
  for (const std::string& executors : executor_counts) {
    ASSERT_OK(session.SetConf("sparkline.executors", executors));
    ASSERT_EQ(expected, RowStrings(Rows(&session, query)))
        << "executors=" << executors;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NullHeavy, IncompleteParallel,
    ::testing::Values(IncompleteParallelCase{64, 3, false, 0.5},
                      IncompleteParallelCase{64, 3, true, 0.5},
                      IncompleteParallelCase{200, 4, false, 0.35},
                      IncompleteParallelCase{200, 2, true, 0.6}));

// The incomplete global stage must split into the chunked stages for
// multi-executor configs (visible as [reduce]/[candidates]/[validate]
// entries in operator_ms; the chunk-order concatenation needs no stage)
// and stay a single task with one executor.
TEST(ParallelIncompleteGlobal, StageSplitsForMultipleExecutors) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 1500, 3, datagen::PointDistribution::kAntiCorrelated, 11,
      /*null_probability=*/0.3)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "incomplete"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  auto metrics_for = [&](const char* execs) {
    SL_CHECK_OK(session.SetConf("sparkline.executors", execs));
    auto df = session.Sql(query);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  };

  const QueryMetrics multi = metrics_for("4");
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete]"), 0u)
      << "incomplete global stage still runs as a single task with 4 executors";
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [reduce]"),
            1u);
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [candidates]"),
            1u);
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [validate]"),
            1u);
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [incomplete] [finalize]"),
            0u);

  const QueryMetrics single = metrics_for("1");
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [incomplete]"), 1u);
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [incomplete] [reduce]"),
            0u);
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [incomplete] [candidates]"),
            0u);
}

// The parallel global merge: with multiple executors the complete global
// skyline must not run as one single task. A distributed plan gathers local
// skylines, so it validates them in one parallel [merge] stage with no
// [partial]; a non-distributed plan's projected rows run [partial] first.
TEST(ParallelGlobalMerge, GlobalStageSplitsForMultipleExecutors) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 2000, 3, datagen::PointDistribution::kAntiCorrelated, 7)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  auto metrics_for = [&](const char* execs) {
    SL_CHECK_OK(session.SetConf("sparkline.executors", execs));
    auto df = session.Sql(query);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  };

  const QueryMetrics multi = metrics_for("4");
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [complete]"), 0u)
      << "global stage still runs as a single task with 4 executors";
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [complete] [partial]"), 0u)
      << "gathered local skylines need no [partial] pass";
  EXPECT_EQ(multi.operator_ms.count("GlobalSkyline [complete] [merge]"), 1u);

  const QueryMetrics single = metrics_for("1");
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [complete]"), 1u);
  EXPECT_EQ(single.operator_ms.count("GlobalSkyline [complete] [partial]"), 0u);

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "non_distributed"));
  const QueryMetrics rows = metrics_for("4");
  EXPECT_EQ(rows.operator_ms.count("GlobalSkyline [complete]"), 0u);
  EXPECT_EQ(rows.operator_ms.count("GlobalSkyline [complete] [partial]"), 1u);
  EXPECT_EQ(rows.operator_ms.count("GlobalSkyline [complete] [merge]"), 1u);
}

/// A table (id BIGINT, d0 .. d{k-1} DOUBLE), all non-null; row i has id i.
TablePtr DoublesTable(const std::string& name,
                      const std::vector<std::vector<double>>& rows) {
  std::vector<Field> fields = {Field{"id", DataType::Int64(), false}};
  for (size_t d = 0; d < rows.front().size(); ++d) {
    fields.push_back(Field{StrCat("d", d), DataType::Double(), false});
  }
  Schema schema(fields);
  auto table = std::make_shared<Table>(name, schema);
  for (size_t i = 0; i < rows.size(); ++i) {
    Row row{Value::Int64(static_cast<int64_t>(i))};
    for (const double v : rows[i]) row.push_back(Value::Double(v));
    SL_CHECK_OK(table->AppendRow(std::move(row)));
  }
  return table;
}

/// BruteForceSkyline over every row of `table` (whole rows, ids included).
std::vector<std::string> Oracle(const Table& table,
                                const std::vector<skyline::BoundDimension>& dims,
                                bool distinct) {
  skyline::SkylineOptions options;
  options.distinct = distinct;
  return RowStrings(skyline::BruteForceSkyline(table.rows(), dims, options));
}

/// "SELECT * FROM <from> SKYLINE OF [DISTINCT] d0 <goal>, ..."; `from` is
/// a table name, optionally followed by a WHERE clause.
std::string SkylineSql(const std::string& from,
                       const std::vector<skyline::BoundDimension>& dims,
                       bool distinct) {
  std::vector<std::string> items;
  for (const auto& dim : dims) {
    items.push_back(StrCat("d", dim.ordinal - 1,
                           dim.goal == SkylineGoal::kMin ? " MIN" : " MAX"));
  }
  return StrCat("SELECT * FROM ", from, " SKYLINE OF ",
                distinct ? "DISTINCT " : "", JoinStrings(items, ", "));
}

/// The incomplete skyline in plain SQL: the Listing-4 NOT EXISTS rewriting
/// with null-restricted comparisons (`i` is no worse on every dimension
/// both rows hold, and better on one of them). Under DISTINCT an equal row
/// — NULL in the same dimensions, equal elsewhere — with a smaller id also
/// eliminates, and SELECT DISTINCT folds whole-row copies, which share
/// their id. Dimension k is column "d<k-1>".
std::string IncompleteReferenceSql(
    const std::string& table, const std::vector<skyline::BoundDimension>& dims,
    bool distinct) {
  std::vector<std::string> no_worse, better, same;
  for (const auto& dim : dims) {
    const std::string c = StrCat("d", dim.ordinal - 1);
    const bool min = dim.goal == SkylineGoal::kMin;
    no_worse.push_back(StrCat("(i.", c, " IS NULL OR o.", c, " IS NULL OR i.",
                              c, min ? " <= " : " >= ", "o.", c, ")"));
    better.push_back(StrCat("i.", c, min ? " < " : " > ", "o.", c));
    same.push_back(StrCat("((i.", c, " IS NULL AND o.", c, " IS NULL) OR i.",
                          c, " = o.", c, ")"));
  }
  std::string witness = StrCat(JoinStrings(no_worse, " AND "), " AND (",
                               JoinStrings(better, " OR "), ")");
  if (distinct) {
    witness = StrCat("(", witness, ") OR (", JoinStrings(same, " AND "),
                     " AND i.id < o.id)");
  }
  return StrCat("SELECT ", distinct ? "DISTINCT " : "", "* FROM ", table,
                " AS o WHERE NOT EXISTS(SELECT * FROM ", table, " AS i WHERE ",
                witness, ")");
}

// Skewed null-bitmap classes: with few NULLs one class (no NULL at all)
// holds most rows, and the scan partitions cut it into pieces. Every row
// appears twice, the copy 750 rows later, so DISTINCT duplicates straddle
// the pieces. Each executor count must agree with BruteForceSkyline and
// with the plain-SQL rewriting: strategy=reference without DISTINCT, and
// IncompleteReferenceSql, which adds the id tie-break, with it.
class SkewedBitmapClasses : public ::testing::TestWithParam<double> {};

TEST_P(SkewedBitmapClasses, SplitClassesAgreeWithBothOracles) {
  const double null_rate = GetParam();
  Session session;
  int non_empty = 0;  // cyclic dominance empties some skylines
  for (size_t num_dims = 2; num_dims <= 6; ++num_dims) {
    TablePtr base = datagen::GeneratePoints(
        "base", 750, num_dims, datagen::PointDistribution::kIndependent,
        /*seed=*/31 + num_dims, null_rate);
    const std::string name = StrCat("skew", num_dims);
    auto table = std::make_shared<Table>(name, base->schema());
    for (int copy = 0; copy < 2; ++copy) {
      for (const Row& row : base->rows()) ASSERT_OK(table->AppendRow(row));
    }
    ASSERT_OK(session.catalog()->RegisterTable(table));

    std::vector<skyline::BoundDimension> dims;
    for (size_t d = 0; d < num_dims; ++d) {
      dims.push_back({d + 1, SkylineGoal::kMin});
    }
    for (const bool distinct : {false, true}) {
      skyline::SkylineOptions options;
      options.distinct = distinct;
      options.nulls = skyline::NullSemantics::kIncomplete;
      const std::vector<std::string> expected = RowStrings(
          skyline::BruteForceSkyline(table->rows(), dims, options));
      non_empty += expected.empty() ? 0 : 1;
      const std::string sql = SkylineSql(name, dims, distinct);
      ASSERT_OK(session.SetConf("sparkline.executors", "4"));
      if (distinct) {
        ASSERT_EQ(expected,
                  RowStrings(Rows(&session, IncompleteReferenceSql(
                                                name, dims, distinct))))
            << "plain-SQL oracle, dims=" << num_dims;
      } else {
        ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
        ASSERT_EQ(expected, RowStrings(Rows(&session, sql)))
            << sql << " strategy=reference";
        ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
      }
      for (const char* executors : {"1", "2", "3", "4", "8", "13"}) {
        ASSERT_OK(session.SetConf("sparkline.executors", executors));
        ASSERT_EQ(expected, RowStrings(Rows(&session, sql)))
            << sql << " executors=" << executors;
      }
    }
  }
  EXPECT_GE(non_empty, 6) << "too few non-empty skylines to test anything";
}

INSTANTIATE_TEST_SUITE_P(NullRates, SkewedBitmapClasses,
                         ::testing::Values(0.02, 0.05, 0.2));

// --- incomplete skylines over the scan's own partitions ----------------------

/// A table (id BIGINT, d0 .. d{k-1} DOUBLE) whose dimensions are nullable;
/// an empty optional is NULL. Row i has id i.
TablePtr NullableDoublesTable(
    const std::string& name,
    const std::vector<std::vector<std::optional<double>>>& rows) {
  std::vector<Field> fields = {Field{"id", DataType::Int64(), false}};
  for (size_t d = 0; d < rows.front().size(); ++d) {
    fields.push_back(Field{StrCat("d", d), DataType::Double(), true});
  }
  auto table = std::make_shared<Table>(name, Schema(fields));
  for (size_t i = 0; i < rows.size(); ++i) {
    Row row{Value::Int64(static_cast<int64_t>(i))};
    for (const std::optional<double>& v : rows[i]) {
      row.push_back(v.has_value() ? Value::Double(*v)
                                  : Value::Null(DataType::Double()));
    }
    SL_CHECK_OK(table->AppendRow(std::move(row)));
  }
  return table;
}

/// Checks `sql` over `table` against BruteForceSkyline under incomplete
/// semantics, and against the plain-SQL rewriting: strategy=reference
/// without DISTINCT, IncompleteReferenceSql with it. Returns the expected
/// rows.
std::vector<std::string> ExpectIncompleteOracles(
    Session* session, const Table& table,
    const std::vector<skyline::BoundDimension>& dims, bool distinct) {
  skyline::SkylineOptions options;
  options.distinct = distinct;
  options.nulls = skyline::NullSemantics::kIncomplete;
  const std::vector<std::string> expected =
      RowStrings(skyline::BruteForceSkyline(table.rows(), dims, options));
  const std::string sql = distinct
                              ? IncompleteReferenceSql(table.name(), dims, true)
                              : SkylineSql(table.name(), dims, false);
  SL_CHECK_OK(session->SetConf("sparkline.skyline.strategy",
                               distinct ? "auto" : "reference"));
  EXPECT_EQ(expected, RowStrings(Rows(session, sql))) << sql;
  SL_CHECK_OK(session->SetConf("sparkline.skyline.strategy", "auto"));
  return expected;
}

// Rows of one null bitmap may be dropped before the all-pairs global
// stage: by the local stage within a scan partition, and by the global
// [reduce] across partitions. Here s = (1, 1, NULL) dominates
// r = (2, 2, NULL), which has the same bitmap. r is the obvious witness
// against t = (3, NULL, 5), which has another bitmap: the two share only
// d0, where r is better. Whichever stage drops r, t must still go, because
// s shares the same dimensions with t and is no worse on any of them. r
// sits next to s in the first scan partition (the local stage drops it) or
// in the second (the [reduce] does), with a copy of s, a DISTINCT
// duplicate, in the other place. The fillers trade d0 against d1 and d2,
// so they are incomparable with s, r, t and each other.
TEST(BitmapGroupSoundness, DroppedWitnessLeavesItsVictimDropped) {
  using V = std::optional<double>;
  const std::vector<V> s = {1, 1, V()};
  const std::vector<V> r = {2, 2, V()};
  const std::vector<V> t = {3, V(), 5};
  for (const bool local : {true, false}) {
    // 13 rows: rows 0 and 1 are in the first scan partition and row 7 in
    // the second at 2, 3 and 4 executors; t is row 12.
    std::vector<std::vector<V>> rows = {s, local ? r : s};
    for (int i = 0; i < 9; ++i) {
      if (i == 5) rows.push_back(local ? s : r);
      rows.push_back({4.0 + i, -1.0 * i, 4.0 - i});
    }
    rows.push_back(t);
    const std::string name = local ? "local" : "reduce";
    TablePtr table = NullableDoublesTable(name, rows);
    Session session;
    ASSERT_OK(session.catalog()->RegisterTable(table));
    const std::vector<skyline::BoundDimension> dims = {
        {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMin}};
    for (const bool distinct : {false, true}) {
      const std::vector<std::string> expected =
          ExpectIncompleteOracles(&session, *table, dims, distinct);
      // s and the fillers; without DISTINCT the copy of s too.
      ASSERT_EQ(expected.size(), distinct ? 10u : 11u);
      const std::string sql = SkylineSql(name, dims, distinct);
      for (const char* executors : {"2", "3", "4"}) {
        ASSERT_OK(session.SetConf("sparkline.executors", executors));
        ASSERT_OK_AND_ASSIGN(DataFrame df, session.Sql(sql));
        ASSERT_OK_AND_ASSIGN(QueryResult result, df.Collect());
        EXPECT_EQ(expected, RowStrings(result.rows()))
            << sql << " executors=" << executors;
        // t always leaves the local stage. r does too when it is not in
        // s's partition; the copy of s then is, and only DISTINCT drops it
        // there.
        EXPECT_EQ(result.metrics.operator_rows.at(
                      "LocalSkyline [incomplete, 3 dims]"),
                  local || distinct ? 12 : 13)
            << sql << " executors=" << executors;
      }
    }
  }
}

// Appendix A's cycle under MIN: a = (1, 2, NULL), b = (NULL, 1, 2) and
// c = (2, NULL, 1). Each pair shares one dimension: b beats a on d1, c
// beats b on d2 and a beats c on d0, so every row is dominated and the
// skyline is empty. At 3 executors each row is alone in its scan
// partition, so no local stage sees two of them.
TEST(BitmapGroupSoundness, DominanceCycleAcrossPartitionsIsEmpty) {
  using V = std::optional<double>;
  TablePtr table = NullableDoublesTable(
      "cycle", {{1, 2, V()}, {V(), 1, 2}, {2, V(), 1}});
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims = {
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMin}};
  for (const bool distinct : {false, true}) {
    EXPECT_TRUE(
        ExpectIncompleteOracles(&session, *table, dims, distinct).empty());
    const std::string sql = SkylineSql("cycle", dims, distinct);
    for (const char* executors : {"1", "2", "3", "4"}) {
      ASSERT_OK(session.SetConf("sparkline.executors", executors));
      EXPECT_TRUE(Rows(&session, sql).empty())
          << sql << " executors=" << executors;
    }
  }
}

// With one executor a distributed plan gathers a single local skyline,
// which is already the answer: the global stage keeps its label but runs
// no kernel, so no merge dominance test — after either kernel's local
// stage, and under DISTINCT with every row duplicated. Input without
// skyline parts still runs its kernel (the control: a non-distributed plan
// projects the gathered rows). Results match BruteForceSkyline and the
// reference strategy (whose rewriting leaves DISTINCT to the native
// operator).
TEST(ParallelGlobalMerge, SingleExecutorReturnsTheGatheredPart) {
  TablePtr base = datagen::GeneratePoints(
      "base", 1000, 3, datagen::PointDistribution::kAntiCorrelated, 7);
  auto table = std::make_shared<Table>("pts", base->schema());
  for (int copy = 0; copy < 2; ++copy) {
    for (const Row& row : base->rows()) ASSERT_OK(table->AppendRow(row));
  }
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  ASSERT_OK(session.SetConf("sparkline.executors", "1"));
  const std::vector<skyline::BoundDimension> dims = {
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}, {3, SkylineGoal::kMin}};

  for (const bool distinct : {false, true}) {
    const std::string sql = SkylineSql("pts", dims, distinct);
    const std::vector<std::string> expected = Oracle(*table, dims, distinct);
    ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
    ASSERT_EQ(expected, RowStrings(Rows(&session, sql))) << sql;
    for (const char* strategy : {"distributed", "non_distributed"}) {
      const bool parts = std::string(strategy) == "distributed";
      ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
      for (const char* kernel : {"bnl", "sfs"}) {
        ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
        ASSERT_OK_AND_ASSIGN(DataFrame df, session.Sql(sql));
        ASSERT_OK_AND_ASSIGN(QueryResult result, df.Collect());
        EXPECT_EQ(expected, RowStrings(result.rows()))
            << sql << " " << strategy << " " << kernel;
        EXPECT_EQ(result.metrics.operator_ms.count("GlobalSkyline [complete]"),
                  1u);
        if (parts) {
          EXPECT_EQ(result.metrics.merge_dominance_tests, 0)
              << sql << " " << kernel;
        } else {
          EXPECT_GT(result.metrics.merge_dominance_tests, 0)
              << sql << " " << kernel;
        }
      }
    }
  }
}

// --- regressions: ±inf, score ties and the sum stop ---------------------------

// Row 2 dominates row 0, but with ±inf keyed directly row 0 scored NaN
// (+inf + -inf), and SFS at one executor kept it. Ranked, ±inf keys are
// finite and SFS agrees with both oracles.
TEST(SkylineRegression, InfinityInTwoDimensionsKeepsNoDominatedRow) {
  const double inf = std::numeric_limits<double>::infinity();
  Session session;
  TablePtr table = DoublesTable("t", {{inf, -inf, 5},
                                      {3, 4, 4},
                                      {1, -inf, 5},
                                      {2, 2, 2},
                                      {inf, -inf, 6},
                                      {0, 9, 9},
                                      {inf, 0, -inf}});
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims = {
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMin}};
  const std::string sql = SkylineSql("t", dims, false);
  const std::vector<std::string> expected = Oracle(*table, dims, false);
  ASSERT_EQ(expected.size(), 4u);  // rows 2, 3, 5 and 6
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  ASSERT_EQ(expected, RowStrings(Rows(&session, sql)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.SetConf("sparkline.executors", "1"));
  EXPECT_EQ(expected, RowStrings(Rows(&session, sql)));
}

// (1e17, 1) dominates (1e17, 2) while both score 1e17. Ties kept input
// order, so the victim came first and the SFS window never evicted it.
TEST(SkylineRegression, DominatorTyingItsVictimsScoreEliminatesIt) {
  Session session;
  TablePtr table = DoublesTable("t", {{1e17, 2}, {1e17, 1}});
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims = {{1, SkylineGoal::kMin},
                                                     {2, SkylineGoal::kMin}};
  const std::string sql = SkylineSql("t", dims, false);
  const std::vector<std::string> expected = Oracle(*table, dims, false);
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  ASSERT_EQ(expected, RowStrings(Rows(&session, sql)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.SetConf("sparkline.executors", "1"));
  EXPECT_EQ(expected, RowStrings(Rows(&session, sql)));
}

// The sum stop compared two rounded sums and fired before row 2, the row
// with the best d1, so SFS returned row 3 alone.
TEST(SkylineRegression, SumStopKeepsEverySkylineRow) {
  Session session;
  TablePtr table = DoublesTable("t", {{9007199254740990, 1e17},
                                      {-7, 30000000000000012},
                                      {-1.0000000000000002e17, -5},
                                      {99999999999999984, 1},
                                      {13, 18},
                                      {-9, 29999999999999984}});
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims = {{1, SkylineGoal::kMax},
                                                     {2, SkylineGoal::kMin}};
  const std::string sql = SkylineSql("t", dims, false);
  const std::vector<std::string> expected = Oracle(*table, dims, false);
  ASSERT_EQ(expected.size(), 2u);  // rows 2 and 3
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  ASSERT_EQ(expected, RowStrings(Rows(&session, sql)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.SetConf("sparkline.executors", "1"));
  EXPECT_EQ(expected, RowStrings(Rows(&session, sql)));
}

// Seeded differential sweep over keys where rounding bites: each value is a
// base from {0, ±1e17, 2^53, 3e16, ±inf} plus a small integer offset, so
// scores tie, sums lose low bits and ±inf meet. Every kernel × strategy
// (the distributed one under both partitionings) × executor count ×
// DISTINCT must equal BruteForceSkyline and the reference rewriting.
TEST(SkylineRegression, RoundingSweepAgreesWithBothOracles) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> bases = {0, 1e17, -1e17, 9007199254740992.0,
                                     3e16, inf, -inf};
  struct Plan {
    const char* strategy;
    const char* partitioning;
  };
  const std::vector<Plan> plans = {{"distributed", "asis"},
                                   {"distributed", "angle"},
                                   {"non_distributed", "asis"},
                                   {"incomplete", "asis"}};
  Rng rng(17);
  int runs = 0;
  for (int t = 0; t < 60; ++t) {
    const size_t num_dims = static_cast<size_t>(rng.UniformInt(2, 4));
    std::vector<std::vector<double>> rows(
        static_cast<size_t>(rng.UniformInt(3, 15)));
    for (auto& row : rows) {
      for (size_t d = 0; d < num_dims; ++d) {
        row.push_back(bases[static_cast<size_t>(rng.UniformInt(0, 6))] +
                      static_cast<double>(rng.UniformInt(-2, 2)));
      }
    }
    std::vector<skyline::BoundDimension> dims;
    for (size_t d = 0; d < num_dims; ++d) {
      dims.push_back({d + 1, rng.Bernoulli(0.5) ? SkylineGoal::kMin
                                                : SkylineGoal::kMax});
    }
    const std::string name = StrCat("sweep", t);
    Session session;
    TablePtr table = DoublesTable(name, rows);
    ASSERT_OK(session.catalog()->RegisterTable(table));
    for (const bool distinct : {false, true}) {
      const std::string sql = SkylineSql(name, dims, distinct);
      const std::vector<std::string> expected = Oracle(*table, dims, distinct);
      ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
      ASSERT_EQ(expected, RowStrings(Rows(&session, sql))) << sql;
      for (const Plan& plan : plans) {
        for (const char* kernel : {"bnl", "sfs"}) {
          for (const char* executors : {"1", "3", "4", "8"}) {
            ASSERT_OK(
                session.SetConf("sparkline.skyline.strategy", plan.strategy));
            ASSERT_OK(session.SetConf("sparkline.skyline.partitioning",
                                      plan.partitioning));
            ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
            ASSERT_OK(session.SetConf("sparkline.executors", executors));
            ASSERT_EQ(expected, RowStrings(Rows(&session, sql)))
                << sql << " strategy=" << plan.strategy
                << " partitioning=" << plan.partitioning
                << " kernel=" << kernel << " executors=" << executors;
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 60 * 2 * 4 * 2 * 4);
}

// --- the parallel global merge, end to end -----------------------------------

struct MergeRun {
  std::vector<std::string> rows;
  QueryMetrics metrics;
};

MergeRun RunMerge(Session* session, const std::string& sql) {
  auto df = session->Sql(sql);
  SL_CHECK(df.ok()) << df.status().ToString();
  auto r = df->Collect();
  SL_CHECK(r.ok()) << r.status().ToString();
  return MergeRun{RowStrings(r->rows()), r->metrics};
}

/// Runs `sql` under the distributed strategy at executors {2, 3, 4, 8} with
/// every kernel, expecting `expected` from one parallel [merge] stage.
void ExpectMergeAgrees(Session* session, const std::string& sql,
                       const std::vector<std::string>& expected) {
  for (const char* kernel : {"bnl", "sfs"}) {
    for (const char* executors : {"2", "3", "4", "8"}) {
      SL_CHECK_OK(session->SetConf("sparkline.skyline.strategy", "distributed"));
      SL_CHECK_OK(session->SetConf("sparkline.skyline.kernel", kernel));
      SL_CHECK_OK(session->SetConf("sparkline.executors", executors));
      const MergeRun run = RunMerge(session, sql);
      EXPECT_EQ(expected, run.rows)
          << sql << " kernel=" << kernel << " executors=" << executors;
      EXPECT_EQ(run.metrics.operator_ms.count("GlobalSkyline [complete] [merge]"),
                1u)
          << sql << " kernel=" << kernel << " executors=" << executors;
    }
  }
}

// Equal tuples in different scan partitions: without DISTINCT all survive,
// with it exactly the first one (smallest id) — across part boundaries the
// [merge] must apply the first-encountered rule, not keep every copy or
// drop them all.
TEST(ParallelGlobalMerge, DistinctTiesStraddlingPartsKeepTheFirst) {
  std::vector<std::vector<double>> rows;
  for (int copy = 0; copy < 3; ++copy) {
    for (int i = 0; i < 8; ++i) {
      rows.push_back({static_cast<double>(i), static_cast<double>(7 - i)});
      rows.push_back({static_cast<double>(i + 1), static_cast<double>(8 - i)});
    }
  }
  Session session;
  TablePtr table = DoublesTable("ties", rows);
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims = {{1, SkylineGoal::kMin},
                                                     {2, SkylineGoal::kMin}};
  for (const bool distinct : {false, true}) {
    const std::string sql = SkylineSql("ties", dims, distinct);
    const std::vector<std::string> expected = Oracle(*table, dims, distinct);
    ASSERT_EQ(expected.size(), distinct ? 8u : 24u);
    ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
    ASSERT_EQ(expected, RowStrings(Rows(&session, sql)));
    ExpectMergeAgrees(&session, sql, expected);
  }
}

/// Rows per partition of the input `sql`'s local skyline stage reads, at
/// the session's configuration.
std::vector<size_t> LocalInputRows(Session* session, const std::string& sql) {
  auto df = session->Sql(sql);
  SL_CHECK(df.ok()) << df.status().ToString();
  auto optimized = session->Optimize(df->plan());
  SL_CHECK(optimized.ok()) << optimized.status().ToString();
  auto physical = session->PlanPhysical(*optimized);
  SL_CHECK(physical.ok()) << physical.status().ToString();
  PhysicalPlanPtr op = *physical;
  while (op->label().rfind("LocalSkyline", 0) != 0) {
    SL_CHECK(!op->children().empty()) << (*physical)->TreeString();
    op = op->children()[0];
  }
  ExecContext ctx(session->config().cluster);
  auto rel = op->children()[0]->Execute(&ctx);
  SL_CHECK(rel.ok()) << rel.status().ToString();
  std::vector<size_t> rows;
  for (size_t i = 0; i < rel->partitions.size(); ++i) {
    rows.push_back(rel->PartitionRows(i));
  }
  return rows;
}

// Parts can be empty: more executors than rows leaves scan partitions
// empty, and a borrowing WHERE that keeps only the first and the last of
// four clusters empties the scan partitions in between, so their local
// skylines reach the gather as empty parts.
TEST(ParallelGlobalMerge, EmptyPartsAgreeWithBothOracles) {
  // Four clusters of 16 rows on anti-diagonals: the first holds the whole
  // skyline (duplicates included), and its row (3, 3) strictly dominates
  // every row of the other three.
  std::vector<std::vector<double>> clustered;
  for (int i = 0; i < 64; ++i) {
    const double base = static_cast<double>(i / 16) * 10;
    clustered.push_back({base + i % 7, base + 6 - i % 7});
  }
  const std::vector<std::vector<double>> tiny = {{3, 1}, {1, 3}, {2, 2}};
  const std::vector<skyline::BoundDimension> dims = {{1, SkylineGoal::kMin},
                                                     {2, SkylineGoal::kMin}};
  for (const auto& [name, rows] :
       {std::make_pair(std::string("clustered"), clustered),
        std::make_pair(std::string("tiny"), tiny)}) {
    Session session;
    TablePtr table = DoublesTable(name, rows);
    ASSERT_OK(session.catalog()->RegisterTable(table));
    // The WHERE keeps the first cluster, so the answer is the whole
    // table's.
    const std::string from =
        name == "clustered" ? StrCat(name, " WHERE id < 16 OR id >= 48") : name;
    for (const bool distinct : {false, true}) {
      const std::string sql = SkylineSql(from, dims, distinct);
      const std::vector<std::string> expected = Oracle(*table, dims, distinct);
      ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
      ASSERT_EQ(expected, RowStrings(Rows(&session, sql)));
      ExpectMergeAgrees(&session, sql, expected);
    }
    if (name == "clustered") {
      ASSERT_OK(session.SetConf("sparkline.executors", "4"));
      EXPECT_EQ(LocalInputRows(&session, SkylineSql(from, dims, false)),
                (std::vector<size_t>{16, 0, 0, 16}))
          << "the WHERE must empty the middle scan partitions";
    }
  }
}

/// Asserts that the complete global stage returned its gathered input as
/// the answer: one task under the bare label, no [partial] or [merge], and
/// no merge dominance test.
void ExpectGatherReturned(const QueryMetrics& metrics,
                          const std::string& context) {
  EXPECT_EQ(metrics.operator_ms.count("GlobalSkyline [complete]"), 1u)
      << context;
  EXPECT_EQ(metrics.operator_ms.count("GlobalSkyline [complete] [partial]"),
            0u)
      << context;
  EXPECT_EQ(metrics.operator_ms.count("GlobalSkyline [complete] [merge]"), 0u)
      << context;
  EXPECT_EQ(metrics.merge_dominance_tests, 0) << context;
}

// Two ways to leave exactly one non-empty local skyline, which is already
// the answer, so the global stage returns it without a single dominance
// test, at every executor count and with either kernel:
//   - a borrowing WHERE keeps five rows, all in the first scan partition,
//     and two of them dominate the rest;
//   - a single-partition child (a local relation) reaches the global stage
//     without a gather exchange, so its one part is the local survivors in
//     SFS order, rows 1 and 0, not a contiguous run of matrix rows.
TEST(ParallelGlobalMerge, OneNonEmptyPartNeedsNoDominanceTests) {
  std::vector<std::vector<double>> rows = {{1, 0}, {0, 1}};
  for (int i = 2; i < 40; ++i) {
    rows.push_back({2.0 + (i * 7) % 13, 2.0 + (i * 11) % 13});
  }
  Session session;
  TablePtr table = DoublesTable("corner", rows);
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims = {{1, SkylineGoal::kMin},
                                                     {2, SkylineGoal::kMin}};
  // The WHERE keeps both skyline rows, so the answer is the whole table's.
  const std::string sql = SkylineSql("corner WHERE id < 5", dims, false);
  const std::vector<std::string> expected = Oracle(*table, dims, false);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  ASSERT_EQ(expected, RowStrings(Rows(&session, sql)));
  ASSERT_OK_AND_ASSIGN(
      DataFrame local,
      session.CreateDataFrame(table->schema(), table->rows()));
  ASSERT_OK_AND_ASSIGN(
      DataFrame local_skyline,
      local.Skyline({{"d0", SkylineGoal::kMin}, {"d1", SkylineGoal::kMin}}));

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  for (const char* kernel : {"bnl", "sfs"}) {
    ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
    for (const char* executors : {"2", "3", "4", "8"}) {
      const std::string context =
          StrCat("kernel=", kernel, " executors=", executors);
      ASSERT_OK(session.SetConf("sparkline.executors", executors));
      const std::vector<size_t> parts = LocalInputRows(&session, sql);
      EXPECT_EQ(parts.front(), 5u) << context;
      EXPECT_EQ(std::count(parts.begin(), parts.end(), size_t{0}),
                static_cast<std::ptrdiff_t>(parts.size() - 1))
          << context;
      const MergeRun run = RunMerge(&session, sql);
      EXPECT_EQ(expected, run.rows) << context;
      EXPECT_EQ(run.metrics.exchange_rows_shipped, 2) << context;
      ExpectGatherReturned(run.metrics, context);

      ASSERT_OK_AND_ASSIGN(QueryResult result, local_skyline.Collect());
      EXPECT_EQ(expected, RowStrings(result.rows())) << "local " << context;
      ExpectGatherReturned(result.metrics, StrCat("local ", context));
    }
  }
}

// --- columnar exchange: build-once accounting -------------------------------

int64_t BuildsMatching(const QueryMetrics& m, const std::string& needle) {
  int64_t total = 0;
  for (const auto& [label, n] : m.matrix_builds) {
    if (label.find(needle) != std::string::npos) total += n;
  }
  return total;
}

QueryMetrics RunWith(Session* session, const std::string& query,
                     const char* executors) {
  SL_CHECK_OK(session->SetConf("sparkline.executors", executors));
  auto df = session->Sql(query);
  SL_CHECK(df.ok());
  auto r = df->Collect();
  SL_CHECK(r.ok()) << r.status().ToString();
  return r->metrics;
}

// The build-once invariant: a multi-executor complete plan projects each
// partition's DominanceMatrix exactly once (at the local stage) and no
// global stage — in particular "[merge]" — ever rebuilds.
TEST(ColumnarExchange, CompletePlanBuildsEachPartitionOnce) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 2000, 3, datagen::PointDistribution::kAntiCorrelated, 21)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  const QueryMetrics on = RunWith(&session, query, "4");
  EXPECT_EQ(BuildsMatching(on, "LocalSkyline"), 4)
      << "each of the 4 scan partitions must be projected exactly once";
  EXPECT_EQ(BuildsMatching(on, "GlobalSkyline"), 0)
      << "no global stage may re-project a gathered batch";
  EXPECT_EQ(BuildsMatching(on, "Exchange"), 0)
      << "numeric partitions share one key space: no gather re-ranking";
  EXPECT_EQ(on.matrix_builds.count("GlobalSkyline [complete] [merge]"), 0u)
      << "[merge] must report zero matrix rebuilds";
  EXPECT_GE(on.matrix_reuses.count("GlobalSkyline [complete]"), 1u)
      << "the global stage must record that it reused the shuffled matrix";
  EXPECT_GE(on.matrix_reuses.count("Exchange [AllTuples]"), 1u)
      << "the gather must record a block concat instead of a re-projection";
  EXPECT_GT(on.projection_ms, 0.0);

  // Row input (non-distributed plans) is projected once, in "[project]".
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "non_distributed"));
  const QueryMetrics rows = RunWith(&session, query, "4");
  EXPECT_EQ(BuildsMatching(rows, "GlobalSkyline"), 1);
  EXPECT_EQ(rows.matrix_builds.count("GlobalSkyline [complete] [project]"), 1u);
}

// The streamed local stage holds its window, not its partition: a 100k-row
// correlated 4-d skyline at 4 executors tracks less than the 3.2 MB that
// one whole-input projection takes (100k rows x 4 keys x 8 B) — what the
// per-partition matrices used to add up to.
TEST(ColumnarExchange, StreamedLocalStageTracksLessThanItsInput) {
  constexpr size_t kRows = 100000;
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", kRows, 4, datagen::PointDistribution::kCorrelated, 8)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  const QueryMetrics m = RunWith(
      &session, "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN",
      "4");
  const int64_t tracked =
      m.peak_memory_bytes - 4 * session.config().cluster.executor_overhead_bytes;
  EXPECT_GT(tracked, 0);
  EXPECT_LT(tracked, static_cast<int64_t>(kRows * 4 * sizeof(double)));
  EXPECT_EQ(BuildsMatching(m, "LocalSkyline"), 4);
  EXPECT_GT(m.projection_ms, 0.0);
}

// Same invariant for the incomplete pipeline: the round-based global stage
// (candidates/validate/finalize) runs entirely on the matrix shipped by the
// exchange.
TEST(ColumnarExchange, IncompletePlanReusesShuffledMatrix) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 1200, 3, datagen::PointDistribution::kAntiCorrelated, 31,
      /*null_probability=*/0.3)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "incomplete"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN";

  const QueryMetrics on = RunWith(&session, query, "4");
  EXPECT_GT(BuildsMatching(on, "LocalSkyline"), 0);
  EXPECT_EQ(BuildsMatching(on, "GlobalSkyline"), 0)
      << "the incomplete global stages must reuse the shuffled matrix";
  EXPECT_GE(on.matrix_reuses.count("GlobalSkyline [incomplete]"), 1u);
}

// A nested skyline under the non-distributed strategy feeds the inner
// skyline's single-partition output (a batch projected for the *inner*
// dimensions) directly into the outer global operator — which must detect
// the dimension mismatch and decode instead of reusing a matrix that
// encodes the wrong columns.
TEST(ColumnarExchange, NestedSkylineWithDifferentDimsDecodes) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 600, 3, datagen::PointDistribution::kAntiCorrelated, 17)));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  const std::string nested =
      "SELECT * FROM (SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX) t "
      "SKYLINE OF d2 MIN, d1 MIN";

  // The plain-SQL rewriting never builds a matrix, so it cannot reuse the
  // wrong one.
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  const std::vector<std::string> expected = RowStrings(Rows(&session, nested));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "non_distributed"));
  EXPECT_EQ(expected, RowStrings(Rows(&session, nested)));

  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  EXPECT_EQ(expected, RowStrings(Rows(&session, nested)));
}

// The root decode is the only row materialization on the exchange path: a
// plain skyline query must report decode time and serve exactly the same
// rows, and a query whose skyline feeds a row-consuming operator (ORDER BY)
// must fall back transparently.
TEST(ColumnarExchange, RootDecodeAndRowFallback) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 800, 2, datagen::PointDistribution::kAntiCorrelated, 5)));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));

  const std::string plain = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX";
  const std::vector<std::string> expected = RowStrings(Rows(&session, plain));
  auto df = session.Sql(plain);
  ASSERT_TRUE(df.ok());
  auto result = df->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.decode_ms, 0.0)
      << "a batched plan must decode (and time it) at the root";

  const std::string sorted =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX ORDER BY id";
  const std::vector<std::string> through_sort =
      RowStrings(Rows(&session, sorted));
  EXPECT_EQ(expected, through_sort)
      << "a row-consuming parent must see identical rows via the fallback";
}

// --- one gather shape for both kernels ----------------------------------------

std::vector<std::string> OrderedRowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(RowToString(r));
  return out;
}

/// True when no two of `rows` are equal in every skyline dimension.
bool KeyVectorsUnique(const std::vector<Row>& rows,
                      const std::vector<skyline::BoundDimension>& dims) {
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = i + 1; j < rows.size(); ++j) {
      if (skyline::CompareRows(rows[i], rows[j], dims,
                               skyline::NullSemantics::kComplete) ==
          skyline::Dominance::kEqual) {
        return false;
      }
    }
  }
  return true;
}

// Either kernel's local skyline reaches the global stage as one skyline
// part in SFS order, so kernel=sfs returns BNL's rows and runs BNL's merge
// dominance tests at every executor count, under both partitionings, with
// and without DISTINCT. Where no two result rows share a key vector, the
// part order fixes the row order, and it is the same too. The points are
// anti-correlated with every row duplicated; store_sales mixes MIN and MAX
// goals.
TEST(OneGatherShape, SfsMatchesBnlRowsAndMergeTests) {
  TablePtr base = datagen::GeneratePoints(
      "base", 1000, 3, datagen::PointDistribution::kAntiCorrelated, 11);
  auto points = std::make_shared<Table>("pts", base->schema());
  for (int copy = 0; copy < 2; ++copy) {
    for (const Row& row : base->rows()) ASSERT_OK(points->AppendRow(row));
  }
  datagen::StoreSalesOptions store_options;
  store_options.num_rows = 4000;
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(points));
  ASSERT_OK(session.catalog()->RegisterTable(
      datagen::GenerateStoreSales(store_options)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));

  struct Query {
    const char* table;
    std::vector<skyline::BoundDimension> dims;  ///< ordinals in SELECT *
    const char* skyline_of;
  };
  const std::vector<Query> queries = {
      {"pts",
       {{1, SkylineGoal::kMin}, {2, SkylineGoal::kMax}, {3, SkylineGoal::kMin}},
       "d0 MIN, d1 MAX, d2 MIN"},
      {"store_sales",
       {{2, SkylineGoal::kMax},
        {3, SkylineGoal::kMin},
        {4, SkylineGoal::kMin},
        {5, SkylineGoal::kMin},
        {6, SkylineGoal::kMax},
        {7, SkylineGoal::kMin}},
       "ss_quantity MAX, ss_wholesale_cost MIN, ss_list_price MIN, "
       "ss_sales_price MIN, ss_ext_discount_amt MAX, ss_ext_sales_price MIN"}};
  auto run = [&](const std::string& sql, const char* kernel) {
    SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", kernel));
    auto df = session.Sql(sql);
    SL_CHECK(df.ok()) << df.status().ToString();
    auto result = df->Collect();
    SL_CHECK(result.ok()) << result.status().ToString();
    return *std::move(result);
  };
  int ordered = 0;
  for (const Query& query : queries) {
    for (const bool distinct : {false, true}) {
      const std::string sql =
          StrCat("SELECT * FROM ", query.table, " SKYLINE OF ",
                 distinct ? "DISTINCT " : "", query.skyline_of);
      for (const char* partitioning : {"asis", "angle"}) {
        ASSERT_OK(
            session.SetConf("sparkline.skyline.partitioning", partitioning));
        for (const char* executors : {"1", "2", "4", "8", "13"}) {
          ASSERT_OK(session.SetConf("sparkline.executors", executors));
          const std::string context =
              StrCat(sql, " partitioning=", partitioning,
                     " executors=", executors);
          const QueryResult bnl = run(sql, "bnl");
          const QueryResult sfs = run(sql, "sfs");
          ASSERT_FALSE(bnl.rows().empty()) << context;
          EXPECT_EQ(RowStrings(bnl.rows()), RowStrings(sfs.rows())) << context;
          EXPECT_EQ(bnl.metrics.merge_dominance_tests,
                    sfs.metrics.merge_dominance_tests)
              << context;
          if (KeyVectorsUnique(bnl.rows(), query.dims)) {
            EXPECT_EQ(OrderedRowStrings(bnl.rows()),
                      OrderedRowStrings(sfs.rows()))
                << context;
            ++ordered;
          }
        }
      }
    }
  }
  // DISTINCT leaves no two rows with one key vector, so order is checked
  // at least there.
  EXPECT_GE(ordered, 2 * 2 * 5);
}

// --- SFS early termination: metrics and auto-disable --------------------------

// On correlated data the minC stop point must skip a large fraction of the
// input (acceptance bar: >30% of the table rows), visible through the
// sfs_rows_skipped / sfs_early_stops counters, and the SFS result must
// equal BNL's, which never stops early.
TEST(SfsEarlyStopEndToEnd, CorrelatedSkylineSkipsAndMatches) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 4000, 3, datagen::PointDistribution::kCorrelated, 77)));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));
  const std::string query =
      "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN";

  auto run = [&](const char* kernel) {
    SL_CHECK_OK(session.SetConf("sparkline.skyline.kernel", kernel));
    auto df = session.Sql(query);
    SL_CHECK(df.ok());
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return *std::move(r);
  };

  const QueryResult bnl = run("bnl");
  EXPECT_EQ(bnl.metrics.sfs_rows_skipped, 0);
  EXPECT_EQ(bnl.metrics.sfs_early_stops, 0);

  const QueryResult sfs = run("sfs");
  EXPECT_GE(sfs.metrics.sfs_early_stops, 1);
  EXPECT_GT(sfs.metrics.sfs_rows_skipped, 4000 * 3 / 10)
      << "the stop point must skip >30% of a correlated table";
  EXPECT_EQ(RowStrings(bnl.rows()), RowStrings(sfs.rows()));
}

// With NULLs in the skyline dimensions the stop is unsound and must
// auto-disable: the counters stay zero and results still match the oracle
// (the incomplete pipeline never runs SFS, and the columnar SFS pass
// refuses the stop whenever the matrix carries null bitmaps).
TEST(SfsEarlyStopEndToEnd, AutoDisabledOnIncompleteData) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "pts", 800, 3, datagen::PointDistribution::kCorrelated, 78,
      /*null_probability=*/0.3)));
  ASSERT_OK(session.SetConf("sparkline.skyline.kernel", "sfs"));
  ASSERT_OK(session.SetConf("sparkline.executors", "4"));

  auto df = session.Sql("SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN");
  ASSERT_TRUE(df.ok());
  auto result = df->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.sfs_rows_skipped, 0);
  EXPECT_EQ(result->metrics.sfs_early_stops, 0);

  std::vector<skyline::BoundDimension> oracle_dims{
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMin}};
  skyline::SkylineOptions oracle_options;
  oracle_options.nulls = skyline::NullSemantics::kIncomplete;
  EXPECT_EQ(RowStrings(result->rows()),
            RowStrings(skyline::BruteForceSkyline(
                ::sparkline::testing::Rows(&session, "SELECT * FROM pts"),
                oracle_dims, oracle_options)));
}

// --- order-exact encoding: NaN, wide BIGINT, VARCHAR goals -------------------

/// A table whose skyline columns hold every shape DominanceMatrix::Build
/// must rank rather than key directly, next to an ordinary numeric column:
///   x  DOUBLE   small integers (ordinary, directly keyed)
///   f  DOUBLE   NaN (both signs), ±0.0, ±inf and a few finite values
///   b  BIGINT   values around ±2^53 plus INT64_MIN / INT64_MAX
///   s  VARCHAR  short strings, including "" and mixed case
/// With `null_rate` > 0 every skyline column is nullable and NULL-bearing.
/// With `ranked_from` < n only rows from that index on draw f and b from
/// the special pools (earlier rows get plain values), so contiguous scan
/// partitions disagree on which dimensions are ranked.
TablePtr EncodingTable(const std::string& name, size_t n, double null_rate,
                       uint64_t seed, size_t ranked_from = 0) {
  constexpr int64_t k53 = int64_t{1} << 53;
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> f_pool = {nan, -nan, -0.0, 0.0, inf,
                                      -inf, 1.5,  -2.0, 3.0};
  const std::vector<int64_t> b_pool = {
      k53 - 1, k53,    k53 + 1, k53 + 2, -k53, -k53 - 1,
      std::numeric_limits<int64_t>::max(), std::numeric_limits<int64_t>::min(),
      0,       7};
  const std::vector<std::string> s_pool = {"", "a", "ab", "b", "Zed", "zed"};
  const bool nullable = null_rate > 0;
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"x", DataType::Double(), nullable},
                 Field{"f", DataType::Double(), nullable},
                 Field{"b", DataType::Int64(), nullable},
                 Field{"s", DataType::String(), nullable}});
  auto table = std::make_shared<Table>(name, schema);
  Rng rng(seed);
  auto pick = [&](size_t size) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  for (size_t i = 0; i < n; ++i) {
    const bool special = i >= ranked_from;
    Row row{Value::Int64(static_cast<int64_t>(i)),
            Value::Double(static_cast<double>(rng.UniformInt(0, 9))),
            Value::Double(special ? f_pool[pick(f_pool.size())]
                                  : static_cast<double>(rng.UniformInt(0, 9))),
            Value::Int64(special ? b_pool[pick(b_pool.size())]
                                 : rng.UniformInt(-9, 9)),
            Value::String(s_pool[pick(s_pool.size())])};
    for (size_t c = 1; c < row.size(); ++c) {
      if (nullable && rng.Bernoulli(null_rate)) {
        row[c] = Value::Null(schema.field(c).type);
      }
    }
    SL_CHECK_OK(table->AppendRow(std::move(row)));
  }
  return table;
}

/// Sorted multiset of rendered rows with -0.0 shown as 0: -0.0 and 0.0 are
/// equal skyline values, so which of two equal tuples DISTINCT keeps must
/// not show. (NaN already renders sign-free.)
std::vector<std::string> CanonicalRows(std::vector<Row> rows) {
  for (Row& row : rows) {
    for (Value& v : row) {
      if (!v.is_null() && v.type() == DataType::Double() &&
          v.double_value() == 0.0) {
        v = Value::Double(0.0);
      }
    }
  }
  return RowStrings(rows);
}

struct EncodingQuery {
  std::vector<std::pair<const char*, SkylineGoal>> dims;
};

/// Column ordinals of EncodingTable.
size_t EncodingOrdinal(const std::string& column) {
  const std::vector<std::string> columns = {"id", "x", "f", "b", "s"};
  return static_cast<size_t>(
      std::find(columns.begin(), columns.end(), column) - columns.begin());
}

const char* GoalName(SkylineGoal goal) {
  switch (goal) {
    case SkylineGoal::kMin:
      return "MIN";
    case SkylineGoal::kMax:
      return "MAX";
    case SkylineGoal::kDiff:
      return "DIFF";
  }
  return "?";
}

std::vector<skyline::BoundDimension> EncodingDims(const EncodingQuery& q) {
  std::vector<skyline::BoundDimension> dims;
  for (const auto& [column, goal] : q.dims) {
    dims.push_back({EncodingOrdinal(column), goal});
  }
  return dims;
}

/// The oracle: BruteForceSkyline straight from the table rows, projected
/// onto the skyline columns (the queries select exactly those).
std::vector<std::string> EncodingOracle(const Table& table,
                                        const EncodingQuery& q, bool distinct,
                                        skyline::NullSemantics nulls) {
  const std::vector<skyline::BoundDimension> dims = EncodingDims(q);
  skyline::SkylineOptions options;
  options.distinct = distinct;
  options.nulls = nulls;
  std::vector<Row> projected;
  for (const Row& row :
       skyline::BruteForceSkyline(table.rows(), dims, options)) {
    Row out;
    for (const auto& d : dims) out.push_back(row[d.ordinal]);
    projected.push_back(std::move(out));
  }
  return CanonicalRows(std::move(projected));
}

std::string EncodingSql(const std::string& table, const EncodingQuery& q,
                        bool distinct) {
  std::vector<std::string> columns, items;
  for (const auto& [column, goal] : q.dims) {
    columns.push_back(column);
    items.push_back(StrCat(column, " ", GoalName(goal)));
  }
  return StrCat("SELECT ", JoinStrings(columns, ", "), " FROM ", table,
                " SKYLINE OF ", distinct ? "DISTINCT " : "",
                JoinStrings(items, ", "));
}

const std::vector<EncodingQuery>& EncodingQueries() {
  static const std::vector<EncodingQuery> queries = {
      {{{"f", SkylineGoal::kMin}, {"x", SkylineGoal::kMin}}},
      {{{"f", SkylineGoal::kMax}, {"x", SkylineGoal::kMax}}},
      {{{"b", SkylineGoal::kMin}, {"x", SkylineGoal::kMax}}},
      {{{"b", SkylineGoal::kMax}, {"x", SkylineGoal::kMin}}},
      {{{"s", SkylineGoal::kMin}, {"x", SkylineGoal::kMin}}},
      {{{"s", SkylineGoal::kMax}, {"f", SkylineGoal::kMin}}},
      {{{"f", SkylineGoal::kMin},
        {"b", SkylineGoal::kMax},
        {"s", SkylineGoal::kMin},
        {"x", SkylineGoal::kMax}}},
      {{{"s", SkylineGoal::kDiff},
        {"b", SkylineGoal::kMin},
        {"f", SkylineGoal::kMax}}},
      // One dimension: without DISTINCT, on NULL-free data, the optimizer
      // rewrites it into a scalar MAX over VARCHAR.
      {{{"s", SkylineGoal::kMax}}},
  };
  return queries;
}

struct EncodingCase {
  const char* name;
  double null_rate;
  size_t ranked_from;  // rows before this index hold plain f/b values
};

class EncodingSweep : public ::testing::TestWithParam<EncodingCase> {};

// Every query over NaN / wide-BIGINT / VARCHAR dimensions (VARCHAR under
// MIN, MAX and DIFF), under every kernel × executor count × DISTINCT ×
// strategy (complete and incomplete semantics), must equal
// BruteForceSkyline — and the plain-SQL reference rewriting (Listing 4),
// except for DISTINCT over NULL-bearing data: the rewriting leaves DISTINCT
// to the native operator, which is then no independent check.
TEST_P(EncodingSweep, AgreesWithBothOracles) {
  const auto& param = GetParam();
  TablePtr table = EncodingTable("enc", 96, param.null_rate, /*seed=*/77,
                                 param.ranked_from);
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const bool with_nulls = param.null_rate > 0;
  const std::vector<const char*> strategies =
      with_nulls ? std::vector<const char*>{"auto", "incomplete"}
                 : std::vector<const char*>{"auto", "distributed",
                                            "non_distributed", "incomplete"};
  int combinations = 0;
  for (const EncodingQuery& q : EncodingQueries()) {
    for (const bool distinct : {false, true}) {
      const std::string sql = EncodingSql("enc", q, distinct);
      const std::vector<std::string> expected = EncodingOracle(
          *table, q, distinct,
          with_nulls ? skyline::NullSemantics::kIncomplete
                     : skyline::NullSemantics::kComplete);
      ASSERT_FALSE(expected.empty()) << sql;
      if (!with_nulls || !distinct) {
        ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
        ASSERT_EQ(expected, CanonicalRows(Rows(&session, sql)))
            << sql << " strategy=reference";
      }
      for (const char* strategy : strategies) {
        for (const char* kernel : {"bnl", "sfs"}) {
          for (const char* executors : {"1", "3", "8"}) {
            ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
            ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
            ASSERT_OK(session.SetConf("sparkline.executors", executors));
            ASSERT_EQ(expected, CanonicalRows(Rows(&session, sql)))
                << sql << " strategy=" << strategy << " kernel=" << kernel
                << " executors=" << executors;
            ++combinations;
          }
        }
      }
    }
  }
  EXPECT_EQ(combinations, static_cast<int>(EncodingQueries().size() * 2 *
                                           strategies.size() * 2 * 3));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncodingSweep,
    ::testing::Values(EncodingCase{"complete", 0.0, 0},
                      EncodingCase{"incomplete", 0.15, 0},
                      // Only the last scan partitions hold NaN / wide BIGINT:
                      // partitions disagree on encoding and the gather must
                      // re-rank.
                      EncodingCase{"ranked_tail", 0.0, 80},
                      EncodingCase{"ranked_tail_incomplete", 0.15, 80}),
    [](const ::testing::TestParamInfo<EncodingCase>& info) {
      return info.param.name;
    });

// NaN only in the last scan partition: the other partitions key f directly
// (and, under SFS, ship sorted views with stop bounds), the last one ranks
// it. The gather must re-project once — counted as one matrix build under
// the exchange's label — instead of concatenating disagreeing key spaces,
// and the answer must still match the oracle.
TEST(EncodingSweep, GatherReRanksWhenPartitionsDisagree) {
  TablePtr table = EncodingTable("tail", 120, 0.0, /*seed=*/5,
                                 /*ranked_from=*/112);
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "distributed"));
  ASSERT_OK(session.SetConf("sparkline.executors", "8"));
  const EncodingQuery q{{{"f", SkylineGoal::kMax}, {"x", SkylineGoal::kMin}}};
  const std::string sql = EncodingSql("tail", q, /*distinct=*/false);
  const std::vector<std::string> expected =
      EncodingOracle(*table, q, false, skyline::NullSemantics::kComplete);
  for (const char* kernel : {"bnl", "sfs"}) {
    ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
    auto df = session.Sql(sql);
    ASSERT_TRUE(df.ok());
    auto result = df->Collect();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(expected, CanonicalRows(result->rows())) << kernel;
    EXPECT_EQ(BuildsMatching(result->metrics, "Exchange [AllTuples]"), 1)
        << kernel << ": the gather must re-rank the disagreeing partitions";
    EXPECT_EQ(BuildsMatching(result->metrics, "LocalSkyline"), 8);
    EXPECT_EQ(BuildsMatching(result->metrics, "GlobalSkyline"), 0);
  }
}

// --- borrowed rows through a scan's column map -------------------------------

struct ColumnMapCase {
  const char* name;
  bool incomplete;
};

class PrunedScanColumnMap : public ::testing::TestWithParam<ColumnMapCase> {};

// A subquery listing columns in table order prunes the scan to them and
// leaves an identity projection the optimizer removes, so the skyline sits
// directly on the scan and reads its borrowed rows through the column map
// [2, 4, 5]: matrix builds, id routing in every exchange, the gather's
// copy and the root decode all remap ordinals. Every strategy, partitioning
// mode, executor count and DISTINCT setting must equal BruteForceSkyline —
// and the reference rewriting, except for DISTINCT over NULL-bearing data
// (the rewriting leaves that to the native operator).
TEST_P(PrunedScanColumnMap, AgreesWithBothOracles) {
  const bool incomplete = GetParam().incomplete;
  datagen::StoreSalesOptions data;
  data.num_rows = 600;
  data.seed = 19;
  data.incomplete = incomplete;
  TablePtr table = datagen::GenerateStoreSales(data);
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  // Table columns 2, 4, 5.
  const std::vector<skyline::BoundDimension> table_dims{
      {2, SkylineGoal::kMax}, {4, SkylineGoal::kMin}, {5, SkylineGoal::kMin}};
  const std::vector<const char*> strategies =
      incomplete ? std::vector<const char*>{"auto", "incomplete"}
                 : std::vector<const char*>{"auto", "non_distributed",
                                            "incomplete"};
  int combinations = 0;
  for (const bool distinct : {false, true}) {
    const std::string sql = StrCat(
        "SELECT * FROM (SELECT ss_quantity, ss_list_price, ss_sales_price "
        "FROM store_sales) SKYLINE OF ",
        distinct ? "DISTINCT " : "",
        "ss_quantity MAX, ss_list_price MIN, ss_sales_price MIN");
    skyline::SkylineOptions options;
    options.distinct = distinct;
    options.nulls = incomplete ? skyline::NullSemantics::kIncomplete
                               : skyline::NullSemantics::kComplete;
    std::vector<Row> projected;
    for (const Row& row :
         skyline::BruteForceSkyline(table->rows(), table_dims, options)) {
      projected.push_back(Row{row[2], row[4], row[5]});
    }
    const std::vector<std::string> expected = RowStrings(projected);
    ASSERT_FALSE(expected.empty());
    if (!incomplete || !distinct) {
      ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
      ASSERT_EQ(expected, RowStrings(Rows(&session, sql)))
          << sql << " strategy=reference";
    }
    for (const char* strategy : strategies) {
      for (const char* partitioning : {"asis", "angle"}) {
        for (const char* executors : {"1", "3", "4"}) {
          ASSERT_OK(session.SetConf("sparkline.skyline.strategy", strategy));
          ASSERT_OK(
              session.SetConf("sparkline.skyline.partitioning", partitioning));
          ASSERT_OK(session.SetConf("sparkline.executors", executors));
          const std::string config = StrCat(
              sql, " strategy=", strategy, " partitioning=", partitioning,
              " executors=", executors);
          ASSERT_OK_AND_ASSIGN(DataFrame df, session.Sql(sql));
          ASSERT_OK_AND_ASSIGN(LogicalPlanPtr optimized,
                               session.Optimize(df.plan()));
          ASSERT_OK_AND_ASSIGN(PhysicalPlanPtr physical,
                               session.PlanPhysical(optimized));
          const std::string tree = physical->TreeString();
          ASSERT_NE(tree.find("Scan store_sales [3 columns]"),
                    std::string::npos)
              << config << "\n" << tree;
          ASSERT_EQ(tree.find("Project"), std::string::npos)
              << "the skyline must read the pruned scan directly: " << config
              << "\n" << tree;
          ASSERT_EQ(expected, RowStrings(Rows(&session, sql))) << config;
          ++combinations;
        }
      }
    }
  }
  EXPECT_EQ(combinations, static_cast<int>(2 * strategies.size() * 2 * 3));
}

INSTANTIATE_TEST_SUITE_P(
    StoreSales, PrunedScanColumnMap,
    ::testing::Values(ColumnMapCase{"complete", false},
                      ColumnMapCase{"incomplete", true}),
    [](const ::testing::TestParamInfo<ColumnMapCase>& info) {
      return info.param.name;
    });

// --- filters and projections over borrowed rows ------------------------------

/// 300 anti-correlated points (id, d0..d3) with NULLs at `null_rate` in
/// d0..d2, a NaN in d1 of every 7th row, a NULL or a NaN in d3 (never a
/// skyline dimension) of two rows in every 5, and every 4th row appended
/// again at the end (DISTINCT duplicates).
TablePtr FilterSweepTable(double null_rate) {
  TablePtr base = datagen::GeneratePoints(
      "base", 300, 4, datagen::PointDistribution::kAntiCorrelated,
      /*seed=*/41, null_rate);
  const bool nullable = null_rate > 0;
  Schema schema({Field{"id", DataType::Int64(), false},
                 Field{"d0", DataType::Double(), nullable},
                 Field{"d1", DataType::Double(), nullable},
                 Field{"d2", DataType::Double(), nullable},
                 Field{"d3", DataType::Double(), true}});
  auto table = std::make_shared<Table>("pts", schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows = base->rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i % 7 == 3) rows[i][2] = Value::Double(nan);
    if (i % 5 == 1) rows[i][4] = Value::Null(DataType::Double());
    if (i % 5 == 2) rows[i][4] = Value::Double(nan);
  }
  for (const Row& row : rows) SL_CHECK_OK(table->AppendRow(row));
  for (size_t i = 0; i < rows.size(); i += 4) {
    SL_CHECK_OK(table->AppendRow(rows[i]));
  }
  return table;
}

/// A WHERE clause and the rows it keeps, written out independently of the
/// engine's evaluator: NULL fails every comparison, and NaN sorts above
/// every number (so `NaN >= 0.5` holds and `NaN < 0.5` does not).
struct SweepPredicate {
  const char* sql;
  size_t column;
  enum { kAll, kHalf, kNone } keeps;
  bool (*keep)(const Value& v);
};

const std::vector<SweepPredicate>& SweepPredicates() {
  static const std::vector<SweepPredicate> predicates = {
      {"d1 IS NULL OR d1 >= 0", 2, SweepPredicate::kAll,
       [](const Value&) { return true; }},
      {"d1 < 0.5", 2, SweepPredicate::kHalf,
       [](const Value& v) { return !v.is_null() && v.double_value() < 0.5; }},
      {"d1 < 0", 2, SweepPredicate::kNone, [](const Value&) { return false; }},
      {"d3 IS NULL OR d3 = d3", 4, SweepPredicate::kAll,
       [](const Value&) { return true; }},
      {"d3 >= 0.5", 4, SweepPredicate::kHalf,
       [](const Value& v) {
         return !v.is_null() &&
                (std::isnan(v.double_value()) || v.double_value() >= 0.5);
       }},
      {"d3 < 0", 4, SweepPredicate::kNone, [](const Value&) { return false; }},
  };
  return predicates;
}

class BorrowedFilterSweep : public ::testing::TestWithParam<ColumnMapCase> {};

// A skyline over a filter reads the snapshot in place — directly over the
// scan, or under a subquery that lists the columns out of table order (the
// filter moves below that projection, which copies the filter's borrowed
// rows out in its own column order). For predicates keeping all, half or
// none of the rows, on a skyline and on a non-skyline column holding NULL
// and NaN, every kernel and executor count must return BruteForceSkyline
// over the filtered rows, with and without DISTINCT over duplicated rows —
// and what the reference rewriting returns, except for DISTINCT over
// NULL-bearing dimensions (the rewriting leaves that to the native
// operator).
TEST_P(BorrowedFilterSweep, AgreesWithBothOracles) {
  const bool incomplete = GetParam().incomplete;
  TablePtr table = FilterSweepTable(incomplete ? 0.1 : 0.0);
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(table));
  const std::vector<skyline::BoundDimension> dims{
      {1, SkylineGoal::kMin}, {2, SkylineGoal::kMin}, {3, SkylineGoal::kMax}};
  const std::string skyline_of = "d0 MIN, d1 MIN, d2 MAX";
  // Each shape's FROM clause, and how it lays out a table row.
  struct Shape {
    const char* from;
    std::vector<size_t> columns;
  };
  const std::vector<Shape> shapes = {
      {"pts", {0, 1, 2, 3, 4}},
      {"(SELECT d2, id, d0, d1, d3 FROM pts)", {3, 0, 1, 2, 4}}};
  int combinations = 0;
  int non_empty = 0;
  for (const SweepPredicate& predicate : SweepPredicates()) {
    std::vector<Row> kept;
    for (const Row& row : table->rows()) {
      if (predicate.keep(row[predicate.column])) kept.push_back(row);
    }
    switch (predicate.keeps) {
      case SweepPredicate::kAll:
        ASSERT_EQ(kept.size(), table->num_rows()) << predicate.sql;
        break;
      case SweepPredicate::kHalf:
        ASSERT_GT(kept.size(), table->num_rows() / 3) << predicate.sql;
        ASSERT_LT(kept.size(), table->num_rows() * 2 / 3) << predicate.sql;
        break;
      case SweepPredicate::kNone:
        ASSERT_TRUE(kept.empty()) << predicate.sql;
        break;
    }
    for (const bool distinct : {false, true}) {
      skyline::SkylineOptions options;
      options.distinct = distinct;
      options.nulls = incomplete ? skyline::NullSemantics::kIncomplete
                                 : skyline::NullSemantics::kComplete;
      const std::vector<Row> oracle =
          skyline::BruteForceSkyline(kept, dims, options);
      non_empty += oracle.empty() ? 0 : 1;
      for (const Shape& shape : shapes) {
        std::vector<Row> projected;
        for (const Row& row : oracle) {
          projected.emplace_back();
          for (const size_t c : shape.columns) {
            projected.back().push_back(row[c]);
          }
        }
        const std::vector<std::string> expected = RowStrings(projected);
        const std::string sql =
            StrCat("SELECT * FROM ", shape.from, " WHERE ", predicate.sql,
                   " SKYLINE OF ", distinct ? "DISTINCT " : "", skyline_of);
        if (!incomplete || !distinct) {
          ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
          ASSERT_EQ(expected, RowStrings(Rows(&session, sql)))
              << sql << " strategy=reference";
          ASSERT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
        }
        for (const char* kernel : {"bnl", "sfs"}) {
          for (const char* executors : {"1", "2", "3", "4", "8"}) {
            ASSERT_OK(session.SetConf("sparkline.skyline.kernel", kernel));
            ASSERT_OK(session.SetConf("sparkline.executors", executors));
            ASSERT_EQ(expected, RowStrings(Rows(&session, sql)))
                << sql << " kernel=" << kernel << " executors=" << executors;
            ++combinations;
          }
        }
      }
    }
  }
  EXPECT_EQ(combinations, 6 * 2 * 2 * 2 * 5);
  EXPECT_GE(non_empty, 8) << "too few non-empty skylines to test anything";
}

INSTANTIATE_TEST_SUITE_P(
    Points, BorrowedFilterSweep,
    ::testing::Values(ColumnMapCase{"complete", false},
                      ColumnMapCase{"incomplete", true}),
    [](const ::testing::TestParamInfo<ColumnMapCase>& info) {
      return info.param.name;
    });

// The removed engine switches are gone from the configuration surface.
TEST(RemovedFlags, ColumnarSwitchesAreUnknownKeys) {
  Session session;
  for (const char* key :
       {"sparkline.skyline.columnar", "sparkline.skyline.exchange.columnar",
        "sparkline.skyline.sfs.early_stop",
        "sparkline.skyline.incomplete.parallel",
        "sparkline.skyline.broadcast_filter", "sparkline.scan.zone_maps",
        "sparkline.cache.incremental", "sparkline.skyline.sfs.sort_key"}) {
    const Status status = session.SetConf(key, "false");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(status.ToString().find("unknown configuration key"),
              std::string::npos)
        << status.ToString();
  }
}

// The grid kernel and round-robin partitioning are gone; the messages name
// the values that remain.
TEST(RemovedFlags, GridKernelAndRoundRobinAreRejected) {
  Session session;
  const Status kernel = session.SetConf("sparkline.skyline.kernel", "grid");
  EXPECT_EQ(kernel.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kernel.ToString().find("(bnl | sfs)"), std::string::npos)
      << kernel.ToString();
  const Status partitioning =
      session.SetConf("sparkline.skyline.partitioning", "roundrobin");
  EXPECT_EQ(partitioning.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(partitioning.ToString().find("(asis | angle)"), std::string::npos)
      << partitioning.ToString();
}

}  // namespace
}  // namespace sparkline
