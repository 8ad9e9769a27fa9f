// A Catalyst-style rule-based optimizer (paper section 5.4).
//
// Rules run in named batches; each batch iterates to a fixed point (bounded
// by max_iterations) before the next batch starts, exactly like Spark's
// RuleExecutor. Skyline-specific rules are individually toggleable so the
// ablation benchmarks can quantify them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "plan/logical_plan.h"

namespace sparkline {

struct OptimizerOptions {
  bool constant_folding = true;
  bool filter_pushdown = true;
  bool column_pruning = true;
  /// Section 5.4: a 1-dimensional skyline is a scalar MIN/MAX lookup.
  bool single_dim_skyline_rewrite = true;
  /// Section 5.4: move the skyline below non-reductive joins.
  bool skyline_join_pushdown = true;
  /// Replace every SkylineNode by the plain-SQL NOT EXISTS anti-join
  /// (Listing 4). Used to run the "reference" algorithm of section 6.3.
  bool rewrite_skyline_to_reference = false;
  int max_iterations = 50;
};

/// \brief One rewrite rule. Must be a no-op (return the input pointer) when
/// it does not apply.
struct OptimizerRule {
  std::string name;
  std::function<Result<LogicalPlanPtr>(const LogicalPlanPtr&)> apply;
};

/// \brief A batch of rules iterated to a fixed point.
struct RuleBatch {
  std::string name;
  int max_iterations;
  std::vector<OptimizerRule> rules;
};

class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {});

  /// Optimizes a resolved logical plan.
  Result<LogicalPlanPtr> Optimize(const LogicalPlanPtr& plan) const;

  const std::vector<RuleBatch>& batches() const { return batches_; }

 private:
  OptimizerOptions options_;
  std::vector<RuleBatch> batches_;
};

// Individual rules, exposed for unit tests and the ablation bench.
namespace rules {

Result<LogicalPlanPtr> EliminateSubqueryAliases(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> ReplaceDistinctWithAggregate(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> ConstantFolding(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> SimplifyBooleans(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> CombineFilters(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> PushFilterThroughProject(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> PushFilterThroughJoin(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> CollapseProjects(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> EliminateNoopProjects(const LogicalPlanPtr& plan);
Result<LogicalPlanPtr> PruneScanColumns(const LogicalPlanPtr& plan);

/// SkylineNode with one MIN/MAX dimension on provably complete input ->
/// Filter(dim = (SELECT min/max(dim) FROM child)) (section 5.4).
Result<LogicalPlanPtr> SingleDimSkylineRewrite(const LogicalPlanPtr& plan);

/// SkylineNode over a non-reductive join whose dimensions come from the
/// left side -> join over the skyline of the left side (section 5.4,
/// non-reductiveness via LEFT OUTER or declared FK metadata).
Result<LogicalPlanPtr> PushSkylineThroughJoin(const LogicalPlanPtr& plan);

/// SkylineNode -> left-anti self-join with the dominance predicate
/// (Listing 4); mechanizes the paper's "reference" algorithm. A skyline the
/// planner would run under incomplete semantics (no COMPLETE, some nullable
/// dimension) compares only the dimensions both tuples hold.
Result<LogicalPlanPtr> SkylineToReference(const LogicalPlanPtr& plan);

}  // namespace rules

}  // namespace sparkline
