// Tests for the rule-based optimizer, including the skyline-specific rules
// of paper section 5.4 and the Listing-4 reference rewriting.
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "optimizer/optimizer.h"
#include "plan/plan_clone.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sparkline {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<Catalog>();
    Schema listings({Field{"id", DataType::Int64(), false},
                     Field{"price", DataType::Double(), false},
                     Field{"rating", DataType::Double(), true},
                     Field{"host", DataType::Int64(), false}});
    auto listings_table = std::make_shared<Table>("listings", listings);
    listings_table->constraints().primary_key = {"id"};
    listings_table->constraints().foreign_keys.push_back(
        TableConstraints::ForeignKey{
            {"host"}, "hosts", {"id"}, /*referencing_not_null=*/true});
    ASSERT_OK(catalog_->RegisterTable(listings_table));

    Schema hosts({Field{"id", DataType::Int64(), false},
                  Field{"since", DataType::Int64(), false}});
    auto hosts_table = std::make_shared<Table>("hosts", hosts);
    hosts_table->constraints().primary_key = {"id"};
    ASSERT_OK(catalog_->RegisterTable(hosts_table));
  }

  LogicalPlanPtr Analyze(const std::string& sql) {
    auto plan = ParseSql(sql);
    SL_CHECK(plan.ok()) << plan.status().ToString();
    Analyzer analyzer(catalog_);
    auto analyzed = analyzer.Analyze(*plan);
    SL_CHECK(analyzed.ok()) << sql << " -> " << analyzed.status().ToString();
    return *analyzed;
  }

  LogicalPlanPtr Optimize(const std::string& sql, bool reference = false) {
    Optimizer optimizer(reference);
    auto out = optimizer.Optimize(Analyze(sql));
    SL_CHECK(out.ok()) << out.status().ToString();
    return *out;
  }

  static int CountNodes(const LogicalPlanPtr& plan, PlanKind kind) {
    int n = 0;
    LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& node) {
      if (node->kind() == kind) ++n;
    });
    return n;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(OptimizerTest, ConstantFolding) {
  auto plan = Optimize("SELECT 1 + 2 * 3 AS v FROM listings");
  const auto& project = static_cast<const Project&>(*plan);
  const auto& alias = static_cast<const Alias&>(*project.list()[0]);
  ASSERT_EQ(alias.child()->kind(), ExprKind::kLiteral);
  EXPECT_EQ(static_cast<const Literal&>(*alias.child()).value().int64_value(),
            7);
}

TEST_F(OptimizerTest, BooleanSimplification) {
  auto plan = Optimize("SELECT id FROM listings WHERE true AND price > 0");
  // "true AND p" collapses to "p".
  bool found_and = false;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    for (const auto& e : n->expressions()) {
      Expression::Foreach(e, [&](const ExprPtr& x) {
        if (x->kind() == ExprKind::kBinary &&
            static_cast<const BinaryExpr&>(*x).op() == BinaryOp::kAnd) {
          found_and = true;
        }
      });
    }
  });
  EXPECT_FALSE(found_and);
}

TEST_F(OptimizerTest, CombinesAndPushesFilters) {
  auto plan = Optimize(
      "SELECT * FROM (SELECT id, price FROM listings) t "
      "WHERE price > 1 AND id < 5");
  // One filter, directly over the scan.
  EXPECT_EQ(CountNodes(plan, PlanKind::kFilter), 1);
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kFilter) {
      EXPECT_EQ(n->children()[0]->kind(), PlanKind::kScan);
    }
  });
}

TEST_F(OptimizerTest, PushFilterThroughJoin) {
  auto plan = Optimize(
      "SELECT * FROM listings l JOIN hosts h ON l.host = h.id "
      "WHERE l.price > 10 AND h.since > 2000");
  // Both single-side predicates move below the join.
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->left()->kind(), PlanKind::kFilter);
  EXPECT_EQ(join->right()->kind(), PlanKind::kFilter);
}

TEST_F(OptimizerTest, NoopProjectEliminated) {
  auto plan = Optimize("SELECT id, price, rating, host FROM listings");
  EXPECT_EQ(plan->kind(), PlanKind::kScan);
}

TEST_F(OptimizerTest, ColumnPruningNarrowsScan) {
  auto plan = Optimize("SELECT price FROM listings");
  const Scan* scan = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kScan) scan = static_cast<const Scan*>(n.get());
  });
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->output().size(), 1u);
  EXPECT_EQ(scan->output()[0].name, "price");
}

TEST_F(OptimizerTest, DistinctBecomesAggregate) {
  auto plan = Optimize("SELECT DISTINCT host FROM listings");
  EXPECT_EQ(CountNodes(plan, PlanKind::kDistinct), 0);
  EXPECT_EQ(CountNodes(plan, PlanKind::kAggregate), 1);
}

TEST_F(OptimizerTest, OneDimensionSkylineStaysASkyline) {
  // The engine runs a 1-dimension skyline as one BNL pass over one key
  // column; the paper's MIN/MAX subquery rewrite (section 5.4) is not done.
  auto plan = Optimize("SELECT * FROM listings SKYLINE OF price MIN");
  EXPECT_EQ(CountNodes(plan, PlanKind::kSkyline), 1);
  EXPECT_EQ(CountNodes(plan, PlanKind::kFilter), 0);
}

TEST_F(OptimizerTest, SkylinePushedBelowFkJoin) {
  // listings.host is a declared non-null FK to hosts.id: the inner equi-join
  // is non-reductive, and both dimensions come from the left side.
  auto plan = Optimize(
      "SELECT l.price, l.rating, h.since FROM listings l "
      "JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX");
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  // The skyline is now inside the left join branch.
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 1);
}

TEST_F(OptimizerTest, SkylinePushedBelowLeftOuterJoin) {
  auto plan = Optimize(
      "SELECT l.price, l.rating FROM listings l "
      "LEFT OUTER JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX");
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 1);
}

TEST_F(OptimizerTest, SkylineNotPushedWithoutFk) {
  // Join on a non-FK column: reductive, the rule must not fire.
  auto plan = Optimize(
      "SELECT l.price, l.rating FROM listings l "
      "JOIN hosts h ON l.id = h.since "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX");
  const SkylineNode* sky = nullptr;
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kSkyline) {
      sky = static_cast<const SkylineNode*>(n.get());
    }
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(sky, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 0);
}

TEST_F(OptimizerTest, SkylineNotPushedWhenDimsUseRightSide) {
  auto plan = Optimize(
      "SELECT l.price, h.since FROM listings l JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, h.since MAX");
  const Join* join = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) join = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(CountNodes(join->left(), PlanKind::kSkyline), 0);
}

TEST_F(OptimizerTest, ReferenceRewriteProducesAntiSelfJoin) {
  auto plan = Optimize(
      "SELECT price, rating FROM listings SKYLINE OF price MIN, rating MAX",
      /*reference=*/true);
  EXPECT_EQ(CountNodes(plan, PlanKind::kSkyline), 0);
  const Join* anti = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin &&
        static_cast<const Join&>(*n).join_type() == JoinType::kLeftAnti) {
      anti = static_cast<const Join*>(n.get());
    }
  });
  ASSERT_NE(anti, nullptr);
  // Listing 4 shape: (<= AND >=) AND (< OR >).
  EXPECT_EQ(SplitConjuncts(anti->condition()).size(), 3u);
}

TEST_F(OptimizerTest, ReferenceRewriteAllDiffReturnsChild) {
  auto plan = Optimize("SELECT * FROM listings SKYLINE OF host DIFF",
                       /*reference=*/true);
  EXPECT_EQ(CountNodes(plan, PlanKind::kSkyline), 0);
  EXPECT_EQ(CountNodes(plan, PlanKind::kJoin), 0);
}

TEST_F(OptimizerTest, CloneWithFreshIdsRemapsEverything) {
  auto plan = Analyze("SELECT id, price * 2 AS p2 FROM listings WHERE id > 0");
  std::map<ExprId, ExprId> ids;
  auto clone = CloneWithFreshIds(plan, &ids);
  ASSERT_TRUE(clone.ok());
  EXPECT_FALSE(ids.empty());
  // Outputs must be disjoint between original and clone.
  std::set<ExprId> original_ids;
  for (const auto& a : plan->output()) original_ids.insert(a.id);
  for (const auto& a : (*clone)->output()) {
    EXPECT_EQ(original_ids.count(a.id), 0u);
  }
  // The clone must remain internally resolved.
  EXPECT_TRUE((*clone)->resolved());
}

TEST_F(OptimizerTest, FixpointTerminates) {
  // A moderately nested query must optimize without hitting iteration caps.
  auto plan = Optimize(
      "SELECT p FROM (SELECT price AS p FROM ("
      "SELECT id, price FROM listings WHERE price > 0) a WHERE id < 100) b "
      "WHERE p < 500");
  EXPECT_LE(CountNodes(plan, PlanKind::kFilter), 1);
}

// A batch stops once an iteration returns the very plan it started from, so
// every rule must return its input when it does not apply: optimizing an
// optimized plan returns the same pointer, with and without the Listing 4
// rewrite.
TEST_F(OptimizerTest, OptimizedPlanIsAFixedPointByIdentity) {
  const char* const corpus[] = {
      "SELECT * FROM (SELECT id, price FROM listings) t "
      "WHERE price > 1 AND id < 5",
      "SELECT 1 + 2 * 3 AS v, price FROM listings WHERE true AND id > 2 - 1",
      "SELECT * FROM listings l JOIN hosts h ON l.host = h.id "
      "WHERE l.price > 10 AND h.since > 2000",
      "SELECT host, count(*) AS n, min(price) AS p FROM listings "
      "GROUP BY host",
      "SELECT id FROM listings WHERE price = (SELECT min(price) FROM listings)",
      "SELECT DISTINCT host FROM listings ORDER BY host LIMIT 3",
      "SELECT * FROM listings SKYLINE OF price MIN",
      "SELECT id, price FROM listings WHERE rating > 2 "
      "SKYLINE OF DISTINCT price MIN, rating MAX",
      "SELECT id FROM listings SKYLINE OF price * 2 MIN, abs(rating) MAX, "
      "host DIFF",
      "SELECT l.price, l.rating, h.since FROM listings l "
      "JOIN hosts h ON l.host = h.id "
      "SKYLINE OF COMPLETE l.price MIN, l.rating MAX",
  };
  for (const bool reference : {false, true}) {
    const Optimizer optimizer(reference);
    for (const char* sql : corpus) {
      auto once = optimizer.Optimize(Analyze(sql));
      ASSERT_TRUE(once.ok()) << sql << ": " << once.status().ToString();
      auto twice = optimizer.Optimize(*once);
      ASSERT_TRUE(twice.ok()) << sql << ": " << twice.status().ToString();
      EXPECT_EQ(once->get(), twice->get())
          << sql << " reference=" << reference << "\n"
          << (*once)->TreeString() << "\n"
          << (*twice)->TreeString();
    }
  }
}

}  // namespace
}  // namespace sparkline
