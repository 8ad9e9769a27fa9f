// Tests for the DataFrame API (paper section 5.8): parity with SQL and the
// smin/smax/sdiff skyline builders.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::Rows;

class DataFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>();
    ASSERT_OK(session_->catalog()->RegisterTable(datagen::GeneratePoints(
        "pts", 300, 2, datagen::PointDistribution::kIndependent, 17)));
  }

  std::unique_ptr<Session> session_;
};

TEST_F(DataFrameTest, TableAndSchema) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  EXPECT_EQ(df.schema().num_fields(), 3u);
  EXPECT_EQ(df.schema().field(0).name, "id");
}

TEST_F(DataFrameTest, UnknownTableFails) {
  EXPECT_FALSE(session_->Table("nope").ok());
}

TEST_F(DataFrameTest, SelectWhereParity) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame filtered, df.Where(col("d0") < lit(0.5)));
  ASSERT_OK_AND_ASSIGN(DataFrame selected,
                       filtered.Select({col("id"), col("d1")}));
  ASSERT_OK_AND_ASSIGN(QueryResult api, selected.Collect());
  auto sql = Rows(session_.get(), "SELECT id, d1 FROM pts WHERE d0 < 0.5");
  EXPECT_SAME_ROWS(api.rows(), sql);
}

TEST_F(DataFrameTest, WhereFromString) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame filtered, df.Where("d0 < 0.25 AND d1 < 0.5"));
  ASSERT_OK_AND_ASSIGN(int64_t n, filtered.Count());
  auto sql = Rows(session_.get(),
                  "SELECT * FROM pts WHERE d0 < 0.25 AND d1 < 0.5");
  EXPECT_EQ(static_cast<size_t>(n), sql.size());
}

TEST_F(DataFrameTest, SkylineWithSminSmax) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame sky,
                       df.Skyline({smin(col("d0")), smax(col("d1"))}));
  ASSERT_OK_AND_ASSIGN(QueryResult api, sky.Collect());
  auto sql =
      Rows(session_.get(), "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX");
  EXPECT_SAME_ROWS(api.rows(), sql);
}

TEST_F(DataFrameTest, SkylineFromNameGoalPairs) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(
      DataFrame sky,
      df.Skyline({{"d0", SkylineGoal::kMin}, {"d1", SkylineGoal::kMin}}));
  ASSERT_OK_AND_ASSIGN(QueryResult api, sky.Collect());
  auto sql =
      Rows(session_.get(), "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MIN");
  EXPECT_SAME_ROWS(api.rows(), sql);
}

TEST_F(DataFrameTest, SkylineRejectsPlainColumns) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  auto r = df.Skyline({col("d0")});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("smin"), std::string::npos);
}

TEST_F(DataFrameTest, SkylineDistinctCompleteFlags) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame sky,
                       df.Skyline({smin(col("d0"))}, /*distinct=*/true,
                                  /*complete=*/true));
  bool found = false;
  LogicalPlan::Foreach(sky.plan(), [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kSkyline) {
      const auto& s = static_cast<const SkylineNode&>(*n);
      EXPECT_TRUE(s.distinct());
      EXPECT_TRUE(s.complete());
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST_F(DataFrameTest, AggParity) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(
      DataFrame agg,
      df.Agg({}, {Count(col("id")).As("n"), Min(col("d0")).As("lo")}));
  ASSERT_OK_AND_ASSIGN(QueryResult api, agg.Collect());
  auto sql =
      Rows(session_.get(), "SELECT count(id) AS n, min(d0) AS lo FROM pts");
  EXPECT_SAME_ROWS(api.rows(), sql);
}

TEST_F(DataFrameTest, GroupedAggParity) {
  Schema s({Field{"g", DataType::Int64(), false},
            Field{"v", DataType::Double(), false}});
  auto t = std::make_shared<Table>("gv", s);
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(t->AppendRow({Value::Int64(i % 3), Value::Double(i)}));
  }
  ASSERT_OK(session_->catalog()->RegisterTable(t));
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("gv"));
  ASSERT_OK_AND_ASSIGN(DataFrame agg,
                       df.Agg({col("g")}, {Sum(col("v")).As("total")}));
  ASSERT_OK_AND_ASSIGN(QueryResult api, agg.Collect());
  auto sql = Rows(session_.get(),
                  "SELECT g, sum(v) AS total FROM gv GROUP BY g");
  EXPECT_SAME_ROWS(api.rows(), sql);
}

TEST_F(DataFrameTest, JoinParity) {
  Schema s({Field{"id", DataType::Int64(), false},
            Field{"tag", DataType::String(), false}});
  auto t = std::make_shared<Table>("tags", s);
  for (int i = 0; i < 100; i += 2) {
    ASSERT_OK(t->AppendRow({Value::Int64(i), Value::String("even")}));
  }
  ASSERT_OK(session_->catalog()->RegisterTable(t));
  ASSERT_OK_AND_ASSIGN(DataFrame pts, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame tags, session_->Table("tags"));
  ASSERT_OK_AND_ASSIGN(DataFrame joined,
                       pts.Join(tags, {"id"}, "inner"));
  ASSERT_OK_AND_ASSIGN(QueryResult api, joined.Collect());
  auto sql = Rows(session_.get(), "SELECT * FROM pts JOIN tags USING (id)");
  EXPECT_SAME_ROWS(api.rows(), sql);
}

TEST_F(DataFrameTest, OrderByLimitDistinct) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame sorted,
                       df.OrderBy({col("d0").Desc()}));
  ASSERT_OK_AND_ASSIGN(DataFrame limited, sorted.Limit(5));
  ASSERT_OK_AND_ASSIGN(QueryResult api, limited.Collect());
  EXPECT_EQ(api.num_rows(), 5u);
  for (size_t i = 1; i < api.rows().size(); ++i) {
    EXPECT_GE(api.rows()[i - 1][1].double_value(),
              api.rows()[i][1].double_value());
  }
  ASSERT_OK_AND_ASSIGN(DataFrame sel, df.Select({col("id")}));
  ASSERT_OK_AND_ASSIGN(DataFrame distinct, sel.Distinct());
  ASSERT_OK_AND_ASSIGN(int64_t n, distinct.Count());
  EXPECT_EQ(n, 300);
}

TEST_F(DataFrameTest, CreateDataFrameFromRows) {
  Schema s({Field{"a", DataType::Int64(), false}});
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session_->CreateDataFrame(s, {{Value::Int64(1)}, {Value::Int64(2)}}));
  ASSERT_OK_AND_ASSIGN(int64_t n, df.Count());
  EXPECT_EQ(n, 2);
}

TEST_F(DataFrameTest, ExplainShowsAllStages) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(DataFrame sky,
                       df.Skyline({smin(col("d0")), smin(col("d1"))}));
  ASSERT_OK_AND_ASSIGN(ExplainInfo info, sky.Explain());
  EXPECT_NE(info.analyzed.find("Skyline"), std::string::npos);
  EXPECT_NE(info.physical.find("LocalSkyline"), std::string::npos);
  EXPECT_NE(info.ToString().find("Physical Plan"), std::string::npos);
}

TEST_F(DataFrameTest, ColumnOperatorsCompose) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  ASSERT_OK_AND_ASSIGN(
      DataFrame f,
      df.Where((col("d0") + col("d1") < lit(0.4)) && col("d0").IsNotNull()));
  ASSERT_OK_AND_ASSIGN(QueryResult r, f.Collect());
  for (const auto& row : r.rows()) {
    EXPECT_LT(row[1].double_value() + row[2].double_value(), 0.4);
  }
}

TEST_F(DataFrameTest, EagerAnalysisSurfacesErrors) {
  ASSERT_OK_AND_ASSIGN(DataFrame df, session_->Table("pts"));
  EXPECT_FALSE(df.Select({col("nope")}).ok());
  EXPECT_FALSE(df.Where(col("d0") < lit("text")).ok());
}

// CreateDataFrame checks its rows as a table insert does: each malformed
// row is Invalid, where it used to reach the skyline operators (a short row
// read past its end; a NULL in a non-nullable column keyed as 0.0).
TEST_F(DataFrameTest, CreateDataFrameRejectsMalformedRows) {
  const Schema schema({Field{"x", DataType::Double(), false},
                       Field{"y", DataType::Double(), false}});
  const std::vector<std::vector<Row>> malformed = {
      {{Value::Double(1.0), Value::Double(2.0)}, {Value::Double(3.0)}},
      {{Value::Double(1.0), Value::Double(2.0), Value::Double(3.0)}},
      {{Value::Double(1.0), Value::Null(DataType::Double())}},
      {{Value::String("1.0"), Value::Double(2.0)}},
  };
  for (const std::vector<Row>& rows : malformed) {
    SCOPED_TRACE(RowToString(rows.back()));
    auto df = session_->CreateDataFrame(schema, rows);
    ASSERT_FALSE(df.ok());
    EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(DataFrameTest, CreateDataFrameWidensBigintToDouble) {
  const Schema schema({Field{"x", DataType::Double(), false},
                       Field{"y", DataType::Double(), true}});
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session_->CreateDataFrame(
          schema, {{Value::Int64(1), Value::Null(DataType::Int64())},
                   {Value::Double(0.5), Value::Int64(3)}}));
  ASSERT_OK_AND_ASSIGN(QueryResult r, df.Collect());
  ASSERT_EQ(r.num_rows(), 2u);
  for (const Row& row : r.rows()) {
    for (const Value& v : row) EXPECT_EQ(v.type(), DataType::Double());
  }
  EXPECT_EQ(r.rows()[0][0].double_value(), 1.0);
  EXPECT_TRUE(r.rows()[0][1].is_null());
  EXPECT_EQ(r.rows()[1][1].double_value(), 3.0);
  ASSERT_OK_AND_ASSIGN(DataFrame sky,
                       df.Skyline({smin(col("x")), smin(col("y"))}));
  ASSERT_OK_AND_ASSIGN(QueryResult skyline, sky.Collect());
  EXPECT_GT(skyline.num_rows(), 0u);
}

}  // namespace
}  // namespace sparkline
