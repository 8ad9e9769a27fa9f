// Physical planning: logical plan -> physical operator tree.
//
// Implements the paper's algorithm selection (Listing 8): the complete
// skyline algorithm is chosen when the COMPLETE keyword is present or no
// skyline dimension is nullable; otherwise the incomplete algorithm.
// Session configuration can force a strategy, which is how the benchmarks
// run all four algorithms of section 6.3.
#pragma once

#include "common/result.h"
#include "exec/physical_plan.h"
#include "plan/logical_plan.h"

namespace sparkline {

/// \brief Which skyline execution strategy to use (section 6.3 names).
enum class SkylineStrategy : uint8_t {
  /// Listing 8: complete if provably safe, otherwise incomplete.
  kAuto,
  /// "distributed complete": local skylines per partition, then global.
  kDistributedComplete,
  /// "non-distributed complete": gather, then a single global pass.
  kNonDistributedComplete,
  /// "distributed incomplete": local skylines per null-bitmap group of each
  /// partition, then the all-pairs global stage.
  kDistributedIncomplete,
  /// "reference": the optimizer rewrites every skyline into the plain-SQL
  /// anti-join of Listing 4. A skyline it keeps (SKYLINE OF DISTINCT, which
  /// Listing 4 cannot express) plans as kAuto.
  kReference,
};

Result<SkylineStrategy> ParseSkylineStrategy(const std::string& name);

/// \brief Partitioning scheme for the local stage of a distributed skyline
/// (paper section 7 lists angle-based partitioning as future work).
enum class SkylinePartitioning : uint8_t {
  /// Keep the child's partitioning (the paper's choice, section 5.6).
  kAsIs,
  /// Angle-based space partitioning (Vlachou et al.).
  kAngle,
};
Result<SkylinePartitioning> ParseSkylinePartitioning(const std::string& name);

struct PlannerOptions {
  ClusterConfig cluster;
  SkylineStrategy skyline_strategy = SkylineStrategy::kAuto;
  /// Kernel used by the skyline operators (paper future work: presorting).
  SkylineKernel skyline_kernel = SkylineKernel::kBlockNestedLoop;
  SkylinePartitioning skyline_partitioning = SkylinePartitioning::kAsIs;
};

class PhysicalPlanner {
 public:
  explicit PhysicalPlanner(PlannerOptions options)
      : options_(std::move(options)) {}

  /// Plans an optimized, resolved logical plan.
  Result<PhysicalPlanPtr> Plan(const LogicalPlanPtr& plan) const;

 private:
  Result<PhysicalPlanPtr> PlanNode(const LogicalPlanPtr& plan) const;
  Result<PhysicalPlanPtr> PlanJoin(const Join& join) const;
  Result<PhysicalPlanPtr> PlanAggregate(const Aggregate& agg) const;
  Result<PhysicalPlanPtr> PlanSkyline(const SkylineNode& sky) const;

  /// Binds references and plans embedded scalar subqueries.
  Result<ExprPtr> Bind(const ExprPtr& e,
                       const std::vector<Attribute>& input) const;

  /// Inserts a gather exchange when the child is not single-partitioned
  /// (Spark's EnsureRequirements for the AllTuples distribution).
  static PhysicalPlanPtr EnsureSinglePartition(PhysicalPlanPtr child);

  PlannerOptions options_;
};

}  // namespace sparkline
