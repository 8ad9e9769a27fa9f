#include "optimizer/optimizer.h"

#include "common/logging.h"

namespace sparkline {

namespace {
constexpr int kMaxIterations = 50;
}  // namespace

Optimizer::Optimizer(bool reference) {
  using namespace rules;  // NOLINT(build/namespaces)

  RuleBatch finish{"Finish Analysis", 1, {}};
  finish.rules.push_back({"EliminateSubqueryAliases", EliminateSubqueryAliases});
  finish.rules.push_back(
      {"ReplaceDistinctWithAggregate", ReplaceDistinctWithAggregate});
  batches_.push_back(std::move(finish));

  if (reference) {
    RuleBatch rewrite{"Skyline Reference Rewrite", 1, {}};
    rewrite.rules.push_back({"SkylineToReference", SkylineToReference});
    batches_.push_back(std::move(rewrite));
  }

  RuleBatch skyline{"Skyline Optimizations", kMaxIterations, {}};
  skyline.rules.push_back({"PushSkylineThroughJoin", PushSkylineThroughJoin});
  batches_.push_back(std::move(skyline));

  RuleBatch operators{"Operator Optimizations", kMaxIterations, {}};
  operators.rules.push_back({"ConstantFolding", ConstantFolding});
  operators.rules.push_back({"SimplifyBooleans", SimplifyBooleans});
  operators.rules.push_back({"CombineFilters", CombineFilters});
  operators.rules.push_back(
      {"PushFilterThroughProject", PushFilterThroughProject});
  operators.rules.push_back({"PushFilterThroughJoin", PushFilterThroughJoin});
  operators.rules.push_back({"CollapseProjects", CollapseProjects});
  operators.rules.push_back({"EliminateNoopProjects", EliminateNoopProjects});
  operators.rules.push_back({"PruneScanColumns", PruneScanColumns});
  batches_.push_back(std::move(operators));
}

Result<LogicalPlanPtr> Optimizer::Optimize(const LogicalPlanPtr& plan) const {
  LogicalPlanPtr current = plan;
  for (const auto& batch : batches_) {
    for (int iter = 0; iter < batch.max_iterations; ++iter) {
      const LogicalPlanPtr before = current;
      for (const auto& rule : batch.rules) {
        SL_ASSIGN_OR_RETURN(current, rule.apply(current));
      }
      if (current == before) break;
      if (iter == batch.max_iterations - 1 && batch.max_iterations > 1) {
        SL_LOG_WARN << "optimizer batch '" << batch.name
                    << "' hit max iterations without reaching a fixed point";
      }
    }
  }
  return current;
}

}  // namespace sparkline
