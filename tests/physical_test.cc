// Tests for the physical operators and the distributed execution engine:
// partitioning, exchanges, joins, aggregation phases, skyline operators,
// metrics and timeouts.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "exec/planner.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sparkline {
namespace {

using ::sparkline::testing::MakePointsTable;
using ::sparkline::testing::Rows;

/// The first operator labelled `label` in `plan`, depth first.
PhysicalPlanPtr FindOperator(const PhysicalPlanPtr& plan,
                             const std::string& label) {
  if (plan->label() == label) return plan;
  for (const PhysicalPlanPtr& child : plan->children()) {
    if (PhysicalPlanPtr found = FindOperator(child, label)) return found;
  }
  return nullptr;
}

class PhysicalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>();
    ASSERT_OK(session_->SetConf("sparkline.executors", "3"));
    ASSERT_OK(session_->catalog()->RegisterTable(MakePointsTable(
        "pts",
        {{1, 1, 5}, {2, 2, 4}, {3, 3, 3}, {4, 4, 2}, {5, 5, 1}, {6, 2, 2}})));
    Schema kv({Field{"k", DataType::Int64(), false},
               Field{"v", DataType::Double(), true}});
    auto kvt = std::make_shared<Table>("kv", kv);
    ASSERT_OK(kvt->AppendRow({Value::Int64(1), Value::Double(10)}));
    ASSERT_OK(kvt->AppendRow({Value::Int64(1), Value::Double(20)}));
    ASSERT_OK(kvt->AppendRow({Value::Int64(2), Value::Double(30)}));
    ASSERT_OK(kvt->AppendRow({Value::Int64(3), Value::Null(DataType::Double())}));
    ASSERT_OK(session_->catalog()->RegisterTable(kvt));
  }

  PhysicalPlanPtr Physical(const std::string& sql) {
    auto plan = ParseSql(sql);
    SL_CHECK(plan.ok());
    auto analyzed = session_->Analyze(*plan);
    SL_CHECK(analyzed.ok()) << analyzed.status().ToString();
    auto optimized = session_->Optimize(*analyzed);
    SL_CHECK(optimized.ok());
    auto physical = session_->PlanPhysical(*optimized);
    SL_CHECK(physical.ok()) << physical.status().ToString();
    return *physical;
  }

  QueryMetrics Metrics(const std::string& sql) {
    auto df = session_->Sql(sql);
    SL_CHECK(df.ok()) << df.status().ToString();
    auto r = df->Collect();
    SL_CHECK(r.ok()) << r.status().ToString();
    return r->metrics;
  }

  std::unique_ptr<Session> session_;
};

TEST_F(PhysicalTest, ScanSplitsIntoExecutorPartitions) {
  auto physical = Physical("SELECT id, x, y FROM pts");
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->partitions.size(), 3u);
  EXPECT_EQ(rel->TotalRows(), 6u);
}

TEST_F(PhysicalTest, FilterAndProject) {
  auto rows = Rows(session_.get(), "SELECT id * 10 AS i FROM pts WHERE x <= 2");
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(PhysicalTest, SortOrdersAndNullPlacement) {
  auto rows = Rows(session_.get(), "SELECT v FROM kv ORDER BY v DESC");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0][0].double_value(), 30);
  EXPECT_TRUE(rows[3][0].is_null());  // DESC defaults to NULLS LAST
  auto rows2 =
      Rows(session_.get(), "SELECT v FROM kv ORDER BY v ASC NULLS FIRST");
  EXPECT_TRUE(rows2[0][0].is_null());
}

TEST_F(PhysicalTest, Limit) {
  auto rows = Rows(session_.get(), "SELECT id FROM pts ORDER BY id LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int64_value(), 1);
}

TEST_F(PhysicalTest, GlobalAggregates) {
  auto rows = Rows(session_.get(),
                   "SELECT count(*), count(v), sum(v), min(v), max(v), avg(v) "
                   "FROM kv");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 4);
  EXPECT_EQ(rows[0][1].int64_value(), 3);  // count skips NULL
  EXPECT_DOUBLE_EQ(rows[0][2].double_value(), 60);
  EXPECT_DOUBLE_EQ(rows[0][3].double_value(), 10);
  EXPECT_DOUBLE_EQ(rows[0][4].double_value(), 30);
  EXPECT_DOUBLE_EQ(rows[0][5].double_value(), 20);
}

TEST_F(PhysicalTest, GlobalAggregateOnEmptyInput) {
  auto rows = Rows(session_.get(),
                   "SELECT count(*), sum(v) FROM kv WHERE k > 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(PhysicalTest, GroupedAggregates) {
  auto rows =
      Rows(session_.get(), "SELECT k, sum(v) FROM kv GROUP BY k ORDER BY k");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0][1].double_value(), 30);  // k=1
  EXPECT_DOUBLE_EQ(rows[1][1].double_value(), 30);  // k=2
  EXPECT_TRUE(rows[2][1].is_null());                // k=3: only NULL input
}

TEST_F(PhysicalTest, CountDistinct) {
  auto rows = Rows(session_.get(), "SELECT count(DISTINCT k) FROM kv");
  EXPECT_EQ(rows[0][0].int64_value(), 3);
}

TEST_F(PhysicalTest, TwoPhaseMatchesSinglePartition) {
  // The same aggregation with 1 executor (single partition, partial==final
  // trivial) and 3 executors (real partial/final merge) must agree.
  auto multi =
      Rows(session_.get(), "SELECT k, avg(v), count(*) FROM kv GROUP BY k");
  ASSERT_OK(session_->SetConf("sparkline.executors", "1"));
  auto single =
      Rows(session_.get(), "SELECT k, avg(v), count(*) FROM kv GROUP BY k");
  EXPECT_SAME_ROWS(multi, single);
}

TEST_F(PhysicalTest, HashJoinInnerAndLeftOuter) {
  auto inner = Rows(session_.get(),
                    "SELECT p.id, kv.v FROM pts p JOIN kv ON p.id = kv.k");
  EXPECT_EQ(inner.size(), 4u);  // ids 1 (x2), 2, 3
  auto left = Rows(
      session_.get(),
      "SELECT p.id, kv.v FROM pts p LEFT OUTER JOIN kv ON p.id = kv.k "
      "ORDER BY p.id");
  EXPECT_EQ(left.size(), 7u);  // 6 pts + one duplicate for id=1
  // ids 4..6 have no partner -> NULL v.
  EXPECT_TRUE(left.back()[1].is_null());
}

TEST_F(PhysicalTest, NullKeysNeverMatch) {
  Schema s({Field{"k", DataType::Int64(), true}});
  auto t = std::make_shared<Table>("nullkeys", s);
  ASSERT_OK(t->AppendRow({Value::Null(DataType::Int64())}));
  ASSERT_OK(t->AppendRow({Value::Int64(1)}));
  ASSERT_OK(session_->catalog()->RegisterTable(t));
  auto rows = Rows(session_.get(),
                   "SELECT a.k FROM nullkeys a JOIN nullkeys b ON a.k = b.k");
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(PhysicalTest, NestedLoopSemiAndAntiJoin) {
  auto semi = Rows(session_.get(),
                   "SELECT id FROM pts o WHERE EXISTS("
                   "SELECT * FROM pts i WHERE i.x < o.x)");
  EXPECT_EQ(semi.size(), 5u);  // all but the x-minimum
  auto anti = Rows(session_.get(),
                   "SELECT id FROM pts o WHERE NOT EXISTS("
                   "SELECT * FROM pts i WHERE i.x < o.x)");
  EXPECT_EQ(anti.size(), 1u);
  EXPECT_EQ(anti[0][0].int64_value(), 1);
}

TEST_F(PhysicalTest, CrossJoinCounts) {
  auto rows = Rows(session_.get(),
                   "SELECT p.id FROM pts p CROSS JOIN kv");
  EXPECT_EQ(rows.size(), 24u);  // 6 * 4
}

TEST_F(PhysicalTest, SkylinePhysicalPlanShape) {
  auto physical = Physical(
      "SELECT x, y FROM pts SKYLINE OF x MIN, y MIN");
  const std::string tree = physical->TreeString();
  EXPECT_NE(tree.find("LocalSkyline"), std::string::npos);
  EXPECT_NE(tree.find("GlobalSkyline [complete]"), std::string::npos);
  EXPECT_NE(tree.find("Exchange [AllTuples]"), std::string::npos);
}

TEST_F(PhysicalTest, SkylineStrategiesAgreeOnCompleteData) {
  const std::string q = "SELECT x, y FROM pts SKYLINE OF x MIN, y MIN";
  auto auto_rows = Rows(session_.get(), q);
  for (const char* strategy : {"distributed", "non_distributed", "incomplete",
                               "reference"}) {
    ASSERT_OK(session_->SetConf("sparkline.skyline.strategy", strategy));
    auto rows = Rows(session_.get(), q);
    EXPECT_SAME_ROWS(auto_rows, rows) << "strategy " << strategy;
  }
  ASSERT_OK(session_->SetConf("sparkline.skyline.strategy", "auto"));
  // {1,5},{2,4},{3,3},{4,2},{5,1},{2,2}: (2,2) dominates (2,4), (3,3) and
  // (4,2), leaving {(1,5), (2,2), (5,1)}.
  EXPECT_EQ(auto_rows.size(), 3u);
}

TEST_F(PhysicalTest, IncompleteStrategySelectedForNullableDims) {
  auto physical = Physical("SELECT k, v FROM kv SKYLINE OF v MIN, k MIN");
  const std::string tree = physical->TreeString();
  EXPECT_NE(tree.find("GlobalSkyline [incomplete]"), std::string::npos);
  // The local stage reads the scan's own partitions: no exchange below it.
  const PhysicalPlanPtr local =
      FindOperator(physical, "LocalSkyline [incomplete, 2 dims]");
  ASSERT_NE(local, nullptr) << tree;
  EXPECT_EQ(local->children()[0]->label().rfind("Scan kv", 0), 0u) << tree;
}

TEST_F(PhysicalTest, CompleteKeywordForcesCompleteAlgorithm) {
  auto physical =
      Physical("SELECT k, v FROM kv SKYLINE OF COMPLETE v MIN, k MIN");
  EXPECT_NE(physical->TreeString().find("GlobalSkyline [complete]"),
            std::string::npos);
}

TEST_F(PhysicalTest, SkylineOverComputedDimension) {
  auto rows = Rows(session_.get(),
                   "SELECT id, x, y FROM pts SKYLINE OF x + y MIN");
  // x+y minimum is 4 (2,2).
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 6);
}

TEST_F(PhysicalTest, MetricsPopulated) {
  auto m = Metrics("SELECT x, y FROM pts SKYLINE OF x MIN, y MIN");
  EXPECT_GT(m.wall_ms, 0.0);
  EXPECT_GT(m.simulated_ms, 0.0);
  EXPECT_GT(m.dominance_tests, 0);
  EXPECT_GT(m.peak_memory_bytes,
            3 * session_->config().cluster.executor_overhead_bytes - 1);
  EXPECT_FALSE(m.operator_ms.empty());
}

TEST_F(PhysicalTest, ExchangeCountsShippedRows) {
  auto m = Metrics("SELECT x FROM pts ORDER BY x");
  EXPECT_EQ(m.exchange_rows_shipped, 6);
}

TEST_F(PhysicalTest, TimeoutProducesTimeoutStatus) {
  // A cross-join explosion with a 1 ms budget must time out, not hang.
  ASSERT_OK(session_->SetConf("sparkline.timeout_ms", "1"));
  auto big = datagen::GeneratePoints("big", 20000, 2,
                                     datagen::PointDistribution::kIndependent,
                                     5);
  ASSERT_OK(session_->catalog()->RegisterTable(big));
  auto df = session_->Sql(
      "SELECT count(*) FROM big a CROSS JOIN big b WHERE a.d0 < b.d0");
  ASSERT_TRUE(df.ok());
  auto r = df->Collect();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout());
  ASSERT_OK(session_->SetConf("sparkline.timeout_ms", "0"));
}

TEST_F(PhysicalTest, ExecutorCountChangesPartitioning) {
  ASSERT_OK(session_->SetConf("sparkline.executors", "5"));
  auto physical = Physical("SELECT id FROM pts");
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->partitions.size(), 5u);
}

// --- borrowed rows -----------------------------------------------------------

TEST_F(PhysicalTest, ScanBorrowsTheSnapshotAndChargesOnlyIds) {
  auto physical = Physical("SELECT id, y FROM pts");
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->views.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(rel->borrowed(i)) << i;
    EXPECT_TRUE(rel->partitions[i].empty()) << i;
  }
  // The table owns the rows: the query pays 4 bytes per row id.
  EXPECT_EQ(ctx.memory()->current_bytes(),
            static_cast<int64_t>(6 * sizeof(uint32_t)));
  // The column map projects on the way out: (id, y), not (id, x, y).
  const std::vector<Row> rows = std::move(*rel).Flatten();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(RowToString(rows[0]), "(1, 5)");
}

TEST_F(PhysicalTest, LocalRelationBorrowsItsRows) {
  Schema schema({Field{"a", DataType::Int64(), false}});
  ASSERT_OK_AND_ASSIGN(
      DataFrame df,
      session_->CreateDataFrame(schema,
                                {{Value::Int64(1)}, {Value::Int64(2)}}));
  ASSERT_OK_AND_ASSIGN(LogicalPlanPtr optimized, session_->Optimize(df.plan()));
  ASSERT_OK_AND_ASSIGN(PhysicalPlanPtr physical,
                       session_->PlanPhysical(optimized));
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_TRUE(rel->borrowed(0));
  EXPECT_EQ(ctx.memory()->current_bytes(),
            static_cast<int64_t>(2 * sizeof(uint32_t)));
  EXPECT_EQ(std::move(*rel).Flatten().size(), 2u);
}

/// Asserts that the input of `plan`'s first `exchange` comes from a
/// Project, and that it arrives as rows the query owns: filters pass
/// borrowed rows through, a projection materializes.
void ExpectOwnedExchangeInput(const PhysicalPlanPtr& plan,
                              const std::string& exchange,
                              const ClusterConfig& cluster) {
  const PhysicalPlanPtr op = FindOperator(plan, exchange);
  ASSERT_NE(op, nullptr) << plan->TreeString();
  const PhysicalPlanPtr input = op->children()[0];
  ASSERT_EQ(input->label(), "Project") << plan->TreeString();
  ExecContext ctx(cluster);
  auto rel = input->Execute(&ctx);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_FALSE(rel->has_views()) << "the exchange input must be owned";
  EXPECT_GT(rel->TotalRows(), 0u);
}

// exchange_bytes counts wire bytes: a row crossing an exchange is
// serialized whoever owns it, so the same skyline ships the same rows and
// bytes whether its exchange input is borrowed from the scan or owned
// because a computed projection materialized it.
TEST_F(PhysicalTest, BorrowedAndOwnedExchangeInputShipTheSameBytes) {
  ASSERT_OK(session_->catalog()->RegisterTable(datagen::GeneratePoints(
      "dense", 1000, 3, datagen::PointDistribution::kIndependent, 3)));
  ASSERT_OK(session_->SetConf("sparkline.skyline.partitioning", "angle"));
  const std::string borrowed =
      "SELECT * FROM dense SKYLINE OF d0 MIN, d1 MAX, d2 MIN";
  const std::string owned =
      "SELECT * FROM (SELECT id + 0 AS id, d0, d1, d2 FROM dense) "
      "SKYLINE OF d0 MIN, d1 MAX, d2 MIN";
  ASSERT_NO_FATAL_FAILURE(ExpectOwnedExchangeInput(
      Physical(owned), "Exchange [Angle]", session_->config().cluster));

  const QueryMetrics a = Metrics(borrowed);
  const QueryMetrics b = Metrics(owned);
  EXPECT_EQ(a.exchange_rows_shipped, b.exchange_rows_shipped);
  EXPECT_EQ(a.exchange_bytes, b.exchange_bytes);
  EXPECT_GT(a.exchange_rows_shipped, 1000)
      << "every row crosses the angle exchange";
  EXPECT_SAME_ROWS(Rows(session_.get(), borrowed),
                   Rows(session_.get(), owned));
}

// The incomplete local stage reads the scan's own partitions, which are
// balanced by construction: on store_sales-shaped data (5% NULLs in each
// of 6 dimensions) about 74% of the rows share the no-NULL bitmap, yet
// each of the 4 partitions LocalSkyline [incomplete] reads holds N/4 ± 1
// rows.
TEST_F(PhysicalTest, IncompleteLocalStageReadsBalancedScanPartitions) {
  datagen::StoreSalesOptions options;
  options.num_rows = 20000;
  options.incomplete = true;
  options.null_rate = 0.05;
  TablePtr table = datagen::GenerateStoreSales(options);
  ASSERT_OK(session_->catalog()->RegisterTable(table));
  ASSERT_OK(session_->SetConf("sparkline.executors", "4"));
  std::vector<skyline::BoundDimension> bound;
  for (size_t c = 2; c < 8; ++c) bound.push_back({c, SkylineGoal::kMin});
  const size_t n = table->rows().size();
  size_t no_nulls = 0;
  for (const Row& row : table->rows()) {
    no_nulls += skyline::NullBitmap(row, bound) == 0 ? 1 : 0;
  }
  EXPECT_GT(no_nulls * 100, n * 70);
  EXPECT_LT(no_nulls * 100, n * 78);

  const PhysicalPlanPtr physical = Physical(
      "SELECT * FROM store_sales SKYLINE OF ss_quantity MAX, "
      "ss_wholesale_cost MIN, ss_list_price MIN, ss_sales_price MIN, "
      "ss_ext_discount_amt MAX, ss_ext_sales_price MIN");
  const PhysicalPlanPtr local =
      FindOperator(physical, "LocalSkyline [incomplete, 6 dims]");
  ASSERT_NE(local, nullptr) << physical->TreeString();
  ExecContext ctx(session_->config().cluster);
  auto rel = local->children()[0]->Execute(&ctx);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ASSERT_EQ(rel->partitions.size(), 4u);
  for (size_t p = 0; p < 4; ++p) {
    EXPECT_GE(rel->PartitionRows(p) + 1, n / 4) << "partition " << p;
    EXPECT_LE(rel->PartitionRows(p), n / 4 + 1) << "partition " << p;
  }
}

// Borrowed rows are the table's, not the query's: a skyline over a 100k-row
// scan tracks less than the table itself (matrices and id lists only). A
// Sort materializes its input, so it still charges every row.
TEST_F(PhysicalTest, BorrowedRowsAreNotChargedMaterializedRowsAre) {
  TablePtr table = datagen::GeneratePoints(
      "big", 100000, 4, datagen::PointDistribution::kIndependent, 11);
  ASSERT_OK(session_->catalog()->RegisterTable(table));
  ASSERT_OK(session_->SetConf("sparkline.executors", "4"));
  const int64_t overhead =
      4 * session_->config().cluster.executor_overhead_bytes;

  const QueryMetrics skyline =
      Metrics("SELECT * FROM big SKYLINE OF d0 MIN, d1 MIN, d2 MAX, d3 MIN");
  EXPECT_LT(skyline.peak_memory_bytes - overhead, table->EstimatedBytes());

  const QueryMetrics sorted = Metrics("SELECT * FROM big ORDER BY d0");
  EXPECT_GE(sorted.peak_memory_bytes - overhead, table->EstimatedBytes());
}

/// Rows as strings, in order.
std::vector<std::string> OrderedStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

// A Filter passes borrowed rows through: every output partition is a view
// of the snapshot, and the query tracks only the kept ids. A Project,
// plain or computed, materializes its output rows.
TEST_F(PhysicalTest, FiltersBorrowProjectionsOwn) {
  struct Case {
    const char* sql;
    const char* root;
    bool borrowed;
    std::vector<std::string> rows;
  };
  const std::vector<Case> cases = {
      {"SELECT * FROM pts WHERE x <= 2", "Filter", true,
       {"(1, 1, 5)", "(2, 2, 4)", "(6, 2, 2)"}},
      {"SELECT y, id FROM pts WHERE x <= 2", "Project", false,
       {"(5, 1)", "(4, 2)", "(2, 6)"}},
      {"SELECT id * 10 AS i, y FROM pts WHERE x <= 2", "Project", false,
       {"(10, 5)", "(20, 4)", "(60, 2)"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    const PhysicalPlanPtr physical = Physical(c.sql);
    EXPECT_EQ(physical->label(), c.root) << physical->TreeString();
    ExecContext ctx(session_->config().cluster);
    auto rel = physical->Execute(&ctx);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    ASSERT_EQ(rel->partitions.size(), 3u);
    for (size_t i = 0; i < 3; ++i) EXPECT_EQ(rel->borrowed(i), c.borrowed) << i;
    if (c.borrowed) {
      EXPECT_EQ(ctx.memory()->current_bytes(),
                static_cast<int64_t>(c.rows.size() * sizeof(uint32_t)));
    }
    EXPECT_EQ(OrderedStrings(std::move(*rel).Flatten()), c.rows);
  }
}

// Over a scan whose column map is not the identity (the columns y, id:
// source columns 2 and 0), a filter remaps its bound ordinals to source
// columns once and evaluates on the source rows; its output keeps the map.
TEST_F(PhysicalTest, FilterRemapsThroughTheScansColumnMap) {
  ASSERT_OK_AND_ASSIGN(TablePtr table, session_->catalog()->GetTable("pts"));
  const std::vector<Attribute> columns = {
      {"y", DataType::Double(), false, NextExprId(), ""},
      {"id", DataType::Int64(), false, NextExprId(), ""}};
  const PhysicalPlanPtr scan = std::make_shared<ScanExec>(
      table, std::vector<size_t>{2, 0}, columns);
  const ExprPtr y = BoundReference::Make(0, DataType::Double(), false);
  const PhysicalPlanPtr filter = std::make_shared<FilterExec>(
      BinaryExpr::Make(BinaryOp::kLe, y, Literal::Make(Value::Double(2))),
      scan);
  ExecContext ctx(session_->config().cluster);
  auto kept = filter->Execute(&ctx);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  for (size_t i = 0; i < kept->partitions.size(); ++i) {
    ASSERT_TRUE(kept->borrowed(i)) << i;
    EXPECT_EQ(kept->views[i]->columns, (std::vector<size_t>{2, 0})) << i;
  }
  EXPECT_EQ(OrderedStrings(std::move(*kept).Flatten()),
            (std::vector<std::string>{"(2, 4)", "(1, 5)", "(2, 6)"}));
}

// A filter that keeps every row costs a skyline no more tracked memory
// than its kept ids: the local stage builds its matrices straight from the
// snapshot, as it does without the filter.
TEST_F(PhysicalTest, KeepEveryRowFilterTracksOnlyItsIds) {
  const size_t n = 20000;
  ASSERT_OK(session_->catalog()->RegisterTable(datagen::GeneratePoints(
      "corr", n, 4, datagen::PointDistribution::kCorrelated, 21)));
  ASSERT_OK(session_->SetConf("sparkline.executors", "4"));
  const std::string dims = " SKYLINE OF d0 MIN, d1 MIN, d2 MIN, d3 MIN";
  const std::string unfiltered = "SELECT * FROM corr" + dims;
  const std::string filtered = "SELECT * FROM corr WHERE d0 >= 0" + dims;
  ASSERT_NE(Physical(filtered)->TreeString().find("Filter"),
            std::string::npos);
  const QueryMetrics a = Metrics(unfiltered);
  const QueryMetrics b = Metrics(filtered);
  EXPECT_LE(b.peak_memory_bytes,
            a.peak_memory_bytes + static_cast<int64_t>(n * sizeof(uint32_t)));
  EXPECT_SAME_ROWS(Rows(session_.get(), unfiltered),
                   Rows(session_.get(), filtered));
}

// A predicate with a scalar subquery runs the subquery first, then
// filters the borrowed rows in place.
TEST_F(PhysicalTest, ScalarSubqueryPredicateFiltersBorrowedRows) {
  const PhysicalPlanPtr physical =
      Physical("SELECT * FROM pts WHERE x >= (SELECT avg(x) FROM pts)");
  ExecContext ctx(session_->config().cluster);
  auto rel = physical->Execute(&ctx);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  for (size_t i = 0; i < rel->partitions.size(); ++i) {
    EXPECT_TRUE(rel->borrowed(i)) << i;
  }
  // avg(x) = 17 / 6: ids 3, 4 and 5 qualify.
  EXPECT_EQ(OrderedStrings(std::move(*rel).Flatten()),
            (std::vector<std::string>{"(3, 3, 3)", "(4, 4, 2)", "(5, 5, 1)"}));
}

TEST_F(PhysicalTest, ScalarSubqueryExecution) {
  auto rows = Rows(session_.get(),
                   "SELECT id FROM pts WHERE x = (SELECT min(x) FROM pts)");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 1);
}

TEST_F(PhysicalTest, EmptyScalarSubqueryYieldsNull) {
  auto rows = Rows(session_.get(),
                   "SELECT id FROM pts WHERE x = "
                   "(SELECT min(x) FROM pts WHERE x > 100)");
  EXPECT_TRUE(rows.empty());  // NULL comparison filters everything
}

// --- angle partitioning: normalized-key regression ----------------------------

// Rays from the origin: every ray holds a dominance chain (its innermost
// point dominates the rest), so a direction-aware partitioning puts whole
// chains together and local skylines collapse to one point per ray. The
// dimensions are phrased as mixed-scale MAX goals (value = C - coordinate,
// dim 1 scaled by 1000): the pre-fix assignment bucketed raw |value|+1
// magnitudes, so the scaled dimension swamped the angle and every row
// landed in the last bucket.
std::vector<Row> RayRows(size_t rays, size_t per_ray) {
  std::vector<Row> rows;
  constexpr double kPi = 3.141592653589793;
  for (size_t ray = 0; ray < rays; ++ray) {
    const double theta =
        (static_cast<double>(ray) + 0.5) / static_cast<double>(rays) * kPi / 2;
    for (size_t k = 1; k <= per_ray; ++k) {
      const double r = static_cast<double>(k);
      const double x = r * std::cos(theta);
      const double y = r * std::sin(theta);
      // MAX goals: larger stored value = better = smaller underlying
      // coordinate. Dimension 1 uses a 1000x scale.
      rows.push_back(Row{Value::Double(100.0 - x),
                         Value::Double(1000.0 * (100.0 - y))});
    }
  }
  return rows;
}

/// The bounds ExchangeExec scales by: every row observed once.
exchange_internal::AngleBounds BoundsOf(
    const std::vector<Row>& rows,
    const std::vector<skyline::BoundDimension>& dims) {
  exchange_internal::AngleBounds bounds(dims.size());
  for (const Row& row : rows) bounds.Observe(row, dims);
  return bounds;
}

TEST(AnglePartitionTest, NormalizedKeysSpreadMaxGoalMixedScaleData) {
  const std::vector<Row> rows = RayRows(16, 8);
  const std::vector<skyline::BoundDimension> dims{{0, SkylineGoal::kMax},
                                                  {1, SkylineGoal::kMax}};
  const size_t n = 4;
  const auto bounds = BoundsOf(rows, dims);

  std::vector<std::vector<Row>> angle_parts(n), round_robin(n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t bucket =
        exchange_internal::AnglePartition(rows[i], dims, n, bounds);
    ASSERT_LT(bucket, n);
    angle_parts[bucket].push_back(rows[i]);
    round_robin[i % n].push_back(rows[i]);
  }

  // The pre-fix magnitudes collapsed MAX-goal/mixed-scale data into one
  // bucket; normalized keys must spread it.
  size_t non_empty = 0;
  for (const auto& p : angle_parts) non_empty += p.empty() ? 0 : 1;
  EXPECT_EQ(non_empty, n) << "angle buckets degenerate despite spread data";

  // Pruning power: direction-aligned partitions keep whole dominance
  // chains together, so the shuffled survivor count (the global stage's
  // input) must be strictly smaller than under direction-blind round-robin.
  auto local_survivors = [&](const std::vector<std::vector<Row>>& parts) {
    size_t total = 0;
    for (const auto& part : parts) {
      auto local = skyline::ColumnarSkyline(
          skyline::SkylineKernel::kBlockNestedLoop, part, dims, {});
      SL_CHECK(local.ok());
      total += local->size();
    }
    return total;
  };
  const size_t angle_total = local_survivors(angle_parts);
  const size_t rr_total = local_survivors(round_robin);
  EXPECT_EQ(angle_total, 16u)
      << "each ray's chain must collapse to its innermost point";
  EXPECT_LT(angle_total, rr_total);
}

// A non-finite key is skipped like NULL. One ±inf used to make a bound
// infinite, every scaled coordinate inf/inf = NaN and the bucket cast
// undefined, which put every row in one bucket.
TEST(AnglePartitionTest, NonFiniteKeysKeepTheSpread) {
  const std::vector<skyline::BoundDimension> dims{{0, SkylineGoal::kMax},
                                                  {1, SkylineGoal::kMax}};
  const size_t n = 4;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double special : {inf, -inf, std::nan("")}) {
    std::vector<Row> rows = RayRows(16, 8);
    rows[5][0] = Value::Double(special);
    rows[77][1] = Value::Double(special);
    const auto bounds = BoundsOf(rows, dims);
    std::vector<size_t> sizes(n, 0);
    for (const Row& row : rows) {
      const size_t bucket =
          exchange_internal::AnglePartition(row, dims, n, bounds);
      ASSERT_LT(bucket, n);
      ++sizes[bucket];
    }
    for (size_t b = 0; b < n; ++b) {
      EXPECT_GT(sizes[b], 0u) << "key " << special << ", bucket " << b;
    }
  }

  // Keys spanning more than DBL_MAX scale without overflowing to inf/inf:
  // the scaled points are (1, 0), (0, 1) and (0.5, 0.5).
  const std::vector<Row> wide{{Value::Double(-1e308), Value::Double(1e308)},
                              {Value::Double(1e308), Value::Double(-1e308)},
                              {Value::Double(0), Value::Double(0)}};
  const auto bounds = BoundsOf(wide, dims);
  std::vector<size_t> buckets;
  for (const Row& row : wide) {
    buckets.push_back(exchange_internal::AnglePartition(row, dims, n, bounds));
  }
  EXPECT_EQ(buckets, (std::vector<size_t>{0, 3, 2}));
}

}  // namespace
}  // namespace sparkline
