// A Catalyst-style rule-based optimizer (paper section 5.4).
//
// Rules run in named batches; each batch iterates to a fixed point (bounded
// by its max_iterations) before the next batch starts, exactly like Spark's
// RuleExecutor. A batch stops once an iteration returns the very plan it
// started from: every rule returns its input pointer when it does not apply.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "plan/logical_plan.h"

namespace sparkline {

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
  /// `reference` first replaces every SkylineNode by the plain-SQL NOT
  /// EXISTS anti-join (Listing 4): the "reference" algorithm of section 6.3.
  explicit Optimizer(bool reference);

  /// Optimizes a resolved logical plan.
  Result<LogicalPlanPtr> Optimize(const LogicalPlanPtr& plan) const;

 private:
  std::vector<RuleBatch> batches_;
};

// The rules the batches run (rules.cc and skyline_rules.cc).
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
