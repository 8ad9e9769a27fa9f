// Tests for the analyzer: resolution, the paper's Listing-6/7 rules
// (missing references / aggregate propagation into skylines), the Appendix-B
// sort-over-HAVING fix, USING joins, and EXISTS decorrelation.
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sparkline {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<Catalog>();
    Schema hotels({Field{"id", DataType::Int64(), false},
                   Field{"price", DataType::Double(), false},
                   Field{"rating", DataType::Double(), true},
                   Field{"city", DataType::String(), false}});
    ASSERT_OK(catalog_->RegisterTable(std::make_shared<Table>("hotels", hotels)));
    Schema cities({Field{"name", DataType::String(), false},
                   Field{"country", DataType::String(), false}});
    ASSERT_OK(catalog_->RegisterTable(std::make_shared<Table>("cities", cities)));
  }

  Result<LogicalPlanPtr> Analyze(const std::string& sql) {
    auto plan = ParseSql(sql);
    if (!plan.ok()) return plan.status();
    Analyzer analyzer(catalog_);
    return analyzer.Analyze(*plan);
  }

  LogicalPlanPtr AnalyzeOk(const std::string& sql) {
    auto r = Analyze(sql);
    SL_CHECK(r.ok()) << sql << " -> " << r.status().ToString();
    return *r;
  }

  static const SkylineNode* FindSkyline(const LogicalPlanPtr& plan) {
    const SkylineNode* found = nullptr;
    LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
      if (n->kind() == PlanKind::kSkyline) {
        found = static_cast<const SkylineNode*>(n.get());
      }
    });
    return found;
  }

  std::shared_ptr<Catalog> catalog_;
};

TEST_F(AnalyzerTest, ResolvesSimpleProjection) {
  auto plan = AnalyzeOk("SELECT price, rating FROM hotels");
  EXPECT_TRUE(plan->resolved());
  auto out = plan->output();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "price");
  EXPECT_EQ(out[0].type, DataType::Double());
  EXPECT_FALSE(out[0].nullable);
  EXPECT_TRUE(out[1].nullable);
}

TEST_F(AnalyzerTest, UnknownTableFails) {
  auto r = Analyze("SELECT * FROM nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAnalysisError);
}

TEST_F(AnalyzerTest, UnknownColumnFails) {
  auto r = Analyze("SELECT wat FROM hotels");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("wat"), std::string::npos);
}

TEST_F(AnalyzerTest, StarExpansion) {
  auto plan = AnalyzeOk("SELECT * FROM hotels");
  EXPECT_EQ(plan->output().size(), 4u);
}

TEST_F(AnalyzerTest, QualifiedStarAndAlias) {
  auto plan = AnalyzeOk("SELECT h.* FROM hotels h");
  EXPECT_EQ(plan->output().size(), 4u);
  EXPECT_FALSE(Analyze("SELECT x.* FROM hotels h").ok());
}

TEST_F(AnalyzerTest, QualifiedReferences) {
  AnalyzeOk("SELECT h.price FROM hotels h WHERE h.rating > 3");
  EXPECT_FALSE(Analyze("SELECT x.price FROM hotels h").ok());
}

TEST_F(AnalyzerTest, SelfJoinDisambiguatedByQualifier) {
  auto plan = AnalyzeOk(
      "SELECT a.price FROM hotels a JOIN hotels b ON a.id = b.id");
  EXPECT_TRUE(plan->resolved());
  // Without a qualifier the reference is ambiguous.
  EXPECT_FALSE(
      Analyze("SELECT price FROM hotels a JOIN hotels b ON a.id = b.id").ok());
}

TEST_F(AnalyzerTest, TypeMismatchComparisonFails) {
  auto r = Analyze("SELECT * FROM hotels WHERE city > 3");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("compare"), std::string::npos);
}

TEST_F(AnalyzerTest, FilterMustBeBoolean) {
  EXPECT_FALSE(Analyze("SELECT * FROM hotels WHERE price").ok());
}

TEST_F(AnalyzerTest, GroupByValidation) {
  AnalyzeOk("SELECT city, count(*) FROM hotels GROUP BY city");
  auto r = Analyze("SELECT city, price FROM hotels GROUP BY city");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("GROUP BY"), std::string::npos);
}

TEST_F(AnalyzerTest, HavingOverAggregateOutput) {
  auto plan = AnalyzeOk(
      "SELECT city, count(*) AS n FROM hotels GROUP BY city HAVING n > 2");
  EXPECT_TRUE(plan->resolved());
}

TEST_F(AnalyzerTest, HavingWithHiddenAggregate) {
  // sum(price) is not in the select list; the analyzer must add it to the
  // Aggregate and re-project (the machinery of paper Listing 7/10).
  auto plan = AnalyzeOk(
      "SELECT city FROM hotels GROUP BY city HAVING sum(price) > 100");
  EXPECT_TRUE(plan->resolved());
  // The restoring projection keeps the original single-column output.
  EXPECT_EQ(plan->output().size(), 1u);
  EXPECT_EQ(plan->output()[0].name, "city");
}

TEST_F(AnalyzerTest, OrderByHiddenAggregateWithHaving) {
  // The Appendix-B case: Sort over Filter(HAVING) over Aggregate, ordering
  // by an aggregate that is not part of the output.
  auto plan = AnalyzeOk(
      "SELECT city FROM hotels GROUP BY city "
      "HAVING count(*) > 0 ORDER BY sum(price) DESC");
  EXPECT_TRUE(plan->resolved());
  EXPECT_EQ(plan->output().size(), 1u);
}

TEST_F(AnalyzerTest, OrderByColumnNotInProjection) {
  // ResolveMissingReferences: ORDER BY rating with only price projected.
  auto plan = AnalyzeOk("SELECT price FROM hotels ORDER BY rating");
  EXPECT_TRUE(plan->resolved());
  ASSERT_EQ(plan->output().size(), 1u);
  EXPECT_EQ(plan->output()[0].name, "price");
  // A widening Project must exist below the Sort.
  EXPECT_EQ(plan->kind(), PlanKind::kProject);
  EXPECT_EQ(plan->children()[0]->kind(), PlanKind::kSort);
}

TEST_F(AnalyzerTest, SkylineDimensionNotInProjection) {
  // Paper Listing 6: skyline over a dimension missing from the projection.
  auto plan = AnalyzeOk(
      "SELECT price FROM hotels SKYLINE OF price MIN, rating MAX");
  EXPECT_TRUE(plan->resolved());
  ASSERT_EQ(plan->output().size(), 1u);
  EXPECT_EQ(plan->output()[0].name, "price");
  EXPECT_EQ(plan->kind(), PlanKind::kProject);
  const SkylineNode* sky = FindSkyline(plan);
  ASSERT_NE(sky, nullptr);
  // The skyline child now produces both dimensions.
  EXPECT_EQ(sky->child()->output().size(), 2u);
}

TEST_F(AnalyzerTest, SkylineOverAggregate) {
  // Paper Listing 7: skyline dimensions referencing aggregates, one of
  // which (count) is not part of the output.
  auto plan = AnalyzeOk(
      "SELECT city, sum(price) AS total FROM hotels GROUP BY city "
      "SKYLINE OF total MAX, count(id) MAX");
  EXPECT_TRUE(plan->resolved());
  const SkylineNode* sky = FindSkyline(plan);
  ASSERT_NE(sky, nullptr);
  // Output restored to the two visible columns.
  EXPECT_EQ(plan->output().size(), 2u);
}

TEST_F(AnalyzerTest, SkylineOverAggregateWithHaving) {
  auto plan = AnalyzeOk(
      "SELECT city, sum(price) AS total FROM hotels GROUP BY city "
      "HAVING count(*) > 1 SKYLINE OF total MAX, avg(rating) MAX");
  EXPECT_TRUE(plan->resolved());
  ASSERT_NE(FindSkyline(plan), nullptr);
}

TEST_F(AnalyzerTest, SkylineKeepsFlags) {
  auto plan =
      AnalyzeOk("SELECT * FROM hotels SKYLINE OF DISTINCT COMPLETE price MIN");
  const SkylineNode* sky = FindSkyline(plan);
  ASSERT_NE(sky, nullptr);
  EXPECT_TRUE(sky->distinct());
  EXPECT_TRUE(sky->complete());
}

// CompareValues totally orders VARCHAR and the ranked DominanceMatrix keys
// strings by that order, so MIN/MAX goals over a string are admitted.
TEST_F(AnalyzerTest, SkylineOnStringDimensionAllowed) {
  auto plan = AnalyzeOk("SELECT * FROM hotels SKYLINE OF city MIN, price MAX");
  const SkylineNode* sky = FindSkyline(plan);
  ASSERT_NE(sky, nullptr);
  EXPECT_EQ(sky->dimensions().size(), 2u);
  AnalyzeOk("SELECT * FROM hotels SKYLINE OF city MAX");
}

TEST_F(AnalyzerTest, SkylineDiffOnStringAllowed) {
  AnalyzeOk("SELECT * FROM hotels SKYLINE OF city DIFF, price MIN");
}

TEST_F(AnalyzerTest, UsingJoinMergesColumns) {
  Schema extra({Field{"id", DataType::Int64(), false},
                Field{"stars", DataType::Int64(), true}});
  ASSERT_OK(catalog_->RegisterTable(std::make_shared<Table>("extra", extra)));
  auto plan = AnalyzeOk("SELECT * FROM hotels JOIN extra USING (id)");
  // id appears once: 4 hotel columns + 1 extra column.
  EXPECT_EQ(plan->output().size(), 5u);
}

TEST_F(AnalyzerTest, ExistsBecomesSemiJoin) {
  auto plan = AnalyzeOk(
      "SELECT * FROM hotels o WHERE EXISTS("
      "SELECT * FROM hotels i WHERE i.price < o.price)");
  bool has_semi = false;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin &&
        static_cast<const Join&>(*n).join_type() == JoinType::kLeftSemi) {
      has_semi = true;
    }
  });
  EXPECT_TRUE(has_semi);
}

TEST_F(AnalyzerTest, NotExistsBecomesAntiJoinWithDominanceCondition) {
  auto plan = AnalyzeOk(
      "SELECT price, rating FROM hotels o WHERE NOT EXISTS("
      "SELECT * FROM hotels i WHERE i.price <= o.price AND"
      " i.rating >= o.rating AND (i.price < o.price OR i.rating > o.rating))");
  const Join* anti = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin &&
        static_cast<const Join&>(*n).join_type() == JoinType::kLeftAnti) {
      anti = static_cast<const Join*>(n.get());
    }
  });
  ASSERT_NE(anti, nullptr);
  ASSERT_NE(anti->condition(), nullptr);
  // All three conjuncts were pulled into the join condition.
  EXPECT_EQ(SplitConjuncts(anti->condition()).size(), 3u);
}

TEST_F(AnalyzerTest, UncorrelatedExistsKeepsNoCondition) {
  auto plan = AnalyzeOk(
      "SELECT * FROM hotels WHERE EXISTS(SELECT * FROM cities)");
  const Join* semi = nullptr;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kJoin) semi = static_cast<const Join*>(n.get());
  });
  ASSERT_NE(semi, nullptr);
  EXPECT_EQ(semi->condition(), nullptr);
}

TEST_F(AnalyzerTest, ScalarSubqueryResolvesType) {
  auto plan = AnalyzeOk(
      "SELECT * FROM hotels WHERE price <= (SELECT min(price) FROM hotels)");
  EXPECT_TRUE(plan->resolved());
}

TEST_F(AnalyzerTest, CorrelatedScalarSubqueryRejected) {
  auto r = Analyze(
      "SELECT * FROM hotels o WHERE price <= "
      "(SELECT min(price) FROM hotels i WHERE i.city = o.city)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotImplemented);
}

TEST_F(AnalyzerTest, DerivedTableWithAliasQualifier) {
  auto plan = AnalyzeOk(
      "SELECT s.price FROM (SELECT price FROM hotels) AS s WHERE s.price > 0");
  EXPECT_TRUE(plan->resolved());
}

TEST_F(AnalyzerTest, AggregateInWhereFails) {
  EXPECT_FALSE(Analyze("SELECT * FROM hotels WHERE sum(price) > 3").ok());
}

TEST_F(AnalyzerTest, DuplicateNamesNeedQualifiers) {
  auto r = Analyze(
      "SELECT id FROM hotels a JOIN hotels b ON a.id = b.id");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(AnalyzerTest, FunctionResolution) {
  AnalyzeOk("SELECT ifnull(rating, 0) FROM hotels");
  EXPECT_FALSE(Analyze("SELECT nosuchfn(rating) FROM hotels").ok());
  EXPECT_FALSE(Analyze("SELECT ifnull(rating) FROM hotels").ok());
}

TEST_F(AnalyzerTest, SkylineMissingRefsThroughFilterChain) {
  // Listing 6's recursion: the missing dimension must flow through a WHERE
  // filter *and* the projection.
  auto plan = AnalyzeOk(
      "SELECT price FROM hotels WHERE price > 0 "
      "SKYLINE OF price MIN, rating MAX");
  EXPECT_TRUE(plan->resolved());
  ASSERT_EQ(plan->output().size(), 1u);
  const SkylineNode* sky = FindSkyline(plan);
  ASSERT_NE(sky, nullptr);
  EXPECT_EQ(sky->child()->output().size(), 2u);
}

TEST_F(AnalyzerTest, SkylineMissingRefsThroughDerivedTable) {
  auto plan = AnalyzeOk(
      "SELECT p FROM (SELECT price AS p, rating FROM hotels) t "
      "SKYLINE OF p MIN, rating MAX ORDER BY p");
  EXPECT_TRUE(plan->resolved());
  ASSERT_EQ(plan->output().size(), 1u);
  EXPECT_EQ(plan->output()[0].name, "p");
}

TEST_F(AnalyzerTest, SkylineDimsOverExpressionsOfAggregates) {
  // An arithmetic expression over aggregates as a dimension.
  auto plan = AnalyzeOk(
      "SELECT city FROM hotels GROUP BY city "
      "SKYLINE OF sum(price) / count(*) MIN");
  EXPECT_TRUE(plan->resolved());
  EXPECT_EQ(plan->output().size(), 1u);
}

TEST_F(AnalyzerTest, OrderByThroughSkylineOverAggregate) {
  // Sort above a Skyline above an Aggregate, ordering by a hidden
  // aggregate: exercises the pass-through walk of FindAggregate.
  auto plan = AnalyzeOk(
      "SELECT city, count(*) AS n FROM hotels GROUP BY city "
      "SKYLINE OF n MAX ORDER BY sum(price)");
  EXPECT_TRUE(plan->resolved());
  EXPECT_EQ(plan->output().size(), 2u);
}

TEST_F(AnalyzerTest, FreshIdsPerScanInstance) {
  auto plan = AnalyzeOk("SELECT a.id FROM hotels a CROSS JOIN hotels b");
  std::vector<const Scan*> scans;
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& n) {
    if (n->kind() == PlanKind::kScan) {
      scans.push_back(static_cast<const Scan*>(n.get()));
    }
  });
  ASSERT_EQ(scans.size(), 2u);
  EXPECT_NE(scans[0]->output()[0].id, scans[1]->output()[0].id);
}

}  // namespace
}  // namespace sparkline
