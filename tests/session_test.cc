// Tests for the Session facade: configuration keys, catalog management,
// result rendering, explain output and error paths.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "test_util.h"

namespace sparkline {
namespace {

TEST(SessionConfigTest, ExecutorsBounds) {
  Session session;
  EXPECT_OK(session.SetConf("sparkline.executors", "8"));
  EXPECT_EQ(session.config().cluster.num_executors, 8);
  EXPECT_FALSE(session.SetConf("sparkline.executors", "0").ok());
  EXPECT_FALSE(session.SetConf("sparkline.executors", "99999").ok());
  EXPECT_FALSE(session.SetConf("sparkline.executors", "many").ok());
}

TEST(SessionConfigTest, StrategyValues) {
  Session session;
  EXPECT_OK(session.SetConf("sparkline.skyline.strategy", "non_distributed"));
  EXPECT_EQ(session.config().skyline_strategy,
            SkylineStrategy::kNonDistributedComplete);
  EXPECT_OK(session.SetConf("sparkline.skyline.strategy", "reference"));
  EXPECT_EQ(session.config().skyline_strategy, SkylineStrategy::kReference);
  EXPECT_OK(session.SetConf("sparkline.skyline.strategy", "auto"));
  EXPECT_EQ(session.config().skyline_strategy, SkylineStrategy::kAuto);
  EXPECT_FALSE(session.SetConf("sparkline.skyline.strategy", "quantum").ok());
}

TEST(SessionConfigTest, BooleanParsing) {
  Session session;
  for (const char* v : {"true", "1", "on"}) {
    EXPECT_OK(session.SetConf("sparkline.trace.enabled", v));
    EXPECT_TRUE(session.config().cluster.trace_enabled);
  }
  for (const char* v : {"false", "0", "off"}) {
    EXPECT_OK(session.SetConf("sparkline.trace.enabled", v));
    EXPECT_FALSE(session.config().cluster.trace_enabled);
  }
  EXPECT_FALSE(session.SetConf("sparkline.trace.enabled", "maybe").ok());
}

TEST(SessionConfigTest, UnknownKeyRejected) {
  Session session;
  auto s = session.SetConf("sparkline.nope", "1");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sparkline.nope"), std::string::npos);
}

// The optimizer rules always run and the planner has no cardinality cut:
// their switches are gone from the configuration surface.
TEST(SessionConfigTest, RemovedRewriteSwitchesAreUnknownKeys) {
  Session session;
  for (const char* key : {"sparkline.optimizer.singleDimRewrite",
                          "sparkline.optimizer.skylineJoinPushdown",
                          "sparkline.optimizer.filterPushdown",
                          "sparkline.optimizer.constantFolding",
                          "sparkline.optimizer.columnPruning",
                          "sparkline.skyline.nonDistributedThreshold"}) {
    // Each of these keys accepted "0", so only the key itself can fail.
    const Status status = session.SetConf(key, "0");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(status.ToString().find("unknown configuration key"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(SessionConfigTest, MemoryOverheadInMb) {
  Session session;
  EXPECT_OK(session.SetConf("sparkline.memory.executorOverheadMb", "128"));
  EXPECT_EQ(session.config().cluster.executor_overhead_bytes, 128ll << 20);
}

// Malformed or out-of-range integers are a clean InvalidArgument that
// leaves the config unchanged: trailing characters are not dropped, and
// the timeout and overhead ranges keep the deadline (now + timeout * 10^6
// ns) and the peak-memory sum (executors * overhead) clear of int64
// overflow.
TEST(SessionConfigTest, IntegerKeysRejectMalformedAndOutOfRange) {
  Session session;
  ASSERT_OK(session.SetConf("sparkline.executors", "3"));
  ASSERT_OK(session.SetConf("sparkline.timeout_ms", "500"));
  ASSERT_OK(session.SetConf("sparkline.memory.executorOverheadMb", "8"));
  const std::pair<const char*, const char*> bad[] = {
      {"sparkline.executors", "4x"},
      {"sparkline.executors", ""},
      {"sparkline.executors", "99999999999999999999"},
      {"sparkline.timeout_ms", "10ms"},
      {"sparkline.timeout_ms", "-1"},
      {"sparkline.timeout_ms", "1000000000001"},
      {"sparkline.timeout_ms", "10000000000000"},
      {"sparkline.memory.executorOverheadMb", "8MB"},
      {"sparkline.memory.executorOverheadMb", "-1"},
      {"sparkline.memory.executorOverheadMb", "1048577"},
      {"sparkline.memory.executorOverheadMb", "8796093022208"},  // 2^43
  };
  for (const auto& [key, value] : bad) {
    const Status s = session.SetConf(key, value);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key << "=" << value;
    EXPECT_EQ(session.config().cluster.num_executors, 3);
    EXPECT_EQ(session.config().cluster.timeout_ms, 500);
    EXPECT_EQ(session.config().cluster.executor_overhead_bytes, 8ll << 20);
  }

  // The bounds themselves are accepted, and the arithmetic they guard
  // stays in range.
  EXPECT_OK(session.SetConf("sparkline.timeout_ms", "0"));
  EXPECT_EQ(session.config().cluster.timeout_ms, 0);
  EXPECT_OK(session.SetConf("sparkline.memory.executorOverheadMb", "0"));
  EXPECT_EQ(session.config().cluster.executor_overhead_bytes, 0);
  EXPECT_OK(session.SetConf("sparkline.timeout_ms", "1000000000000"));
  EXPECT_EQ(session.config().cluster.timeout_ms, 1000000000000);
  EXPECT_OK(session.SetConf("sparkline.memory.executorOverheadMb", "1048576"));
  EXPECT_EQ(session.config().cluster.executor_overhead_bytes, 1ll << 40);
  ExecContext ctx(session.config().cluster);
  EXPECT_GT(ctx.deadline_nanos(), 0);
  EXPECT_EQ(ctx.Finish(0).peak_memory_bytes, 3ll << 40);
}

TEST(SessionCatalogTest, RegisterAndDrop) {
  Session session;
  Schema s({Field{"x", DataType::Int64(), false}});
  ASSERT_OK(session.catalog()->RegisterTable(std::make_shared<Table>("t", s)));
  EXPECT_FALSE(
      session.catalog()->RegisterTable(std::make_shared<Table>("T", s)).ok());
  EXPECT_TRUE(session.catalog()->HasTable("t"));
  EXPECT_EQ(session.catalog()->ListTables().size(), 1u);
  EXPECT_OK(session.catalog()->DropTable("T"));  // case-insensitive
  EXPECT_FALSE(session.catalog()->HasTable("t"));
  EXPECT_FALSE(session.catalog()->DropTable("t").ok());
}

TEST(SessionTest, SqlParseErrorsSurface) {
  Session session;
  auto r = session.Sql("SELEC 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(SessionTest, AnalysisErrorsSurface) {
  Session session;
  auto r = session.Sql("SELECT x FROM missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAnalysisError);
}

TEST(QueryResultTest, ToStringRendersTable) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 3, 1, datagen::PointDistribution::kIndependent, 1)));
  ASSERT_OK_AND_ASSIGN(DataFrame df, session.Table("p"));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  const std::string rendered = r.ToString();
  EXPECT_NE(rendered.find("| id"), std::string::npos);
  EXPECT_NE(rendered.find("+"), std::string::npos);
  // Truncation notice.
  const std::string truncated = r.ToString(1);
  EXPECT_NE(truncated.find("showing 1 of 3"), std::string::npos);
}

TEST(QueryResultTest, SchemaMatchesAttrs) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 2, 2, datagen::PointDistribution::kIndependent, 1)));
  ASSERT_OK_AND_ASSIGN(DataFrame df, session.Table("p"));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  EXPECT_EQ(r.schema().num_fields(), 3u);
  EXPECT_EQ(r.schema().field(1).name, "d0");
}

TEST(QueryResultTest, MetricsToStringMentionsEverything) {
  QueryMetrics m;
  m.wall_ms = 12.5;
  m.simulated_ms = 7.25;
  m.peak_memory_bytes = 5 << 20;
  m.dominance_tests = 42;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("wall="), std::string::npos);
  EXPECT_NE(s.find("simulated="), std::string::npos);
  EXPECT_NE(s.find("dominance_tests=42"), std::string::npos);
}

TEST(SessionTest, ExplainListsAllPipelineStages) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 10, 2, datagen::PointDistribution::kIndependent, 1)));
  auto df = session.Sql("SELECT * FROM p SKYLINE OF d0 MIN, d1 MIN");
  ASSERT_TRUE(df.ok());
  ASSERT_OK_AND_ASSIGN(ExplainInfo info, df->Explain());
  EXPECT_NE(info.analyzed.find("Skyline"), std::string::npos);
  EXPECT_NE(info.optimized.find("Skyline"), std::string::npos);
  EXPECT_NE(info.physical.find("GlobalSkyline"), std::string::npos);
  const std::string all = info.ToString();
  EXPECT_NE(all.find("Analyzed Logical Plan"), std::string::npos);
  EXPECT_NE(all.find("Optimized Logical Plan"), std::string::npos);
  EXPECT_NE(all.find("Physical Plan"), std::string::npos);
}

TEST(SessionTest, IndependentSessionsDoNotShareCatalogs) {
  Session a, b;
  Schema s({Field{"x", DataType::Int64(), false}});
  ASSERT_OK(a.catalog()->RegisterTable(std::make_shared<Table>("t", s)));
  EXPECT_FALSE(b.catalog()->HasTable("t"));
}

TEST(SessionTest, ConfigChangesAffectNextQueryOnly) {
  Session session;
  ASSERT_OK(session.catalog()->RegisterTable(datagen::GeneratePoints(
      "p", 100, 2, datagen::PointDistribution::kIndependent, 2)));
  ASSERT_OK(session.SetConf("sparkline.executors", "2"));
  auto df = session.Sql("SELECT * FROM p");
  ASSERT_TRUE(df.ok());
  ASSERT_OK_AND_ASSIGN(QueryResult r1, df->Collect());
  ASSERT_OK(session.SetConf("sparkline.executors", "7"));
  // The DataFrame is lazily executed, so the new executor count applies.
  ASSERT_OK_AND_ASSIGN(QueryResult r2, df->Collect());
  EXPECT_EQ(r1.num_rows(), r2.num_rows());
  EXPECT_GT(r2.metrics.peak_memory_bytes, r1.metrics.peak_memory_bytes);
}

}  // namespace
}  // namespace sparkline
