#include "exec/planner.h"

#include <map>
#include <set>

#include "common/string_util.h"
#include "exec/subquery_expr.h"
#include "expr/evaluator.h"

namespace sparkline {

Result<SkylineStrategy> ParseSkylineStrategy(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "auto") return SkylineStrategy::kAuto;
  if (lower == "distributed" || lower == "distributed_complete") {
    return SkylineStrategy::kDistributedComplete;
  }
  if (lower == "non_distributed" || lower == "nondistributed" ||
      lower == "non_distributed_complete") {
    return SkylineStrategy::kNonDistributedComplete;
  }
  if (lower == "incomplete" || lower == "distributed_incomplete") {
    return SkylineStrategy::kDistributedIncomplete;
  }
  if (lower == "reference") return SkylineStrategy::kReference;
  return Status::Invalid(StrCat("unknown skyline strategy '", name,
                                "' (auto | distributed | non_distributed | "
                                "incomplete | reference)"));
}

Result<SkylinePartitioning> ParseSkylinePartitioning(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "asis" || lower == "as_is" || lower == "default") {
    return SkylinePartitioning::kAsIs;
  }
  if (lower == "angle") return SkylinePartitioning::kAngle;
  return Status::Invalid(StrCat("unknown skyline partitioning '", name,
                                "' (asis | angle)"));
}

namespace {

std::set<ExprId> IdsOf(const std::vector<Attribute>& attrs) {
  std::set<ExprId> ids;
  for (const auto& a : attrs) ids.insert(a.id);
  return ids;
}

bool RefsWithin(const ExprPtr& e, const std::set<ExprId>& ids) {
  for (const auto& a : CollectAttributes(e)) {
    if (ids.count(a.id) == 0) return false;
  }
  return true;
}

}  // namespace

PhysicalPlanPtr PhysicalPlanner::EnsureSinglePartition(PhysicalPlanPtr child) {
  if (child->output_partitioning() == Partitioning::kSinglePartition) {
    return child;
  }
  return std::make_shared<ExchangeExec>(ExchangeMode::kGather,
                                        std::vector<skyline::BoundDimension>{},
                                        std::move(child));
}

Result<ExprPtr> PhysicalPlanner::Bind(
    const ExprPtr& e, const std::vector<Attribute>& input) const {
  SL_ASSIGN_OR_RETURN(ExprPtr bound, BindExpression(e, input));
  // Plan embedded scalar subqueries.
  Status error = Status::OK();
  ExprPtr out = Expression::Transform(bound, [&](const ExprPtr& n) -> ExprPtr {
    if (!error.ok() || n->kind() != ExprKind::kScalarSubquery) return n;
    const auto& sq = static_cast<const ScalarSubquery&>(*n);
    auto sub = PlanNode(sq.plan());
    if (!sub.ok()) {
      error = sub.status();
      return n;
    }
    return PhysicalSubqueryExpr::Make(*sub, sq.type());
  });
  SL_RETURN_NOT_OK(error);
  return out;
}

Result<PhysicalPlanPtr> PhysicalPlanner::Plan(const LogicalPlanPtr& plan) const {
  return PlanNode(plan);
}

Result<PhysicalPlanPtr> PhysicalPlanner::PlanNode(
    const LogicalPlanPtr& plan) const {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const Scan&>(*plan);
      return PhysicalPlanPtr(
          std::make_shared<ScanExec>(scan.table(), scan.column_indices(),
                                     scan.output()));
    }
    case PlanKind::kLocalRelation: {
      const auto& rel = static_cast<const LocalRelation&>(*plan);
      return PhysicalPlanPtr(
          std::make_shared<LocalRelationExec>(rel.rows(), rel.output()));
    }
    case PlanKind::kSubqueryAlias:
      return PlanNode(plan->children()[0]);
    case PlanKind::kProject: {
      const auto& project = static_cast<const Project&>(*plan);
      SL_ASSIGN_OR_RETURN(PhysicalPlanPtr child, PlanNode(project.child()));
      std::vector<ExprPtr> bound;
      bound.reserve(project.list().size());
      for (const auto& e : project.list()) {
        SL_ASSIGN_OR_RETURN(ExprPtr b, Bind(e, project.child()->output()));
        bound.push_back(std::move(b));
      }
      return PhysicalPlanPtr(std::make_shared<ProjectExec>(
          std::move(bound), project.output(), std::move(child)));
    }
    case PlanKind::kFilter: {
      const auto& filter = static_cast<const Filter&>(*plan);
      SL_ASSIGN_OR_RETURN(PhysicalPlanPtr child, PlanNode(filter.child()));
      SL_ASSIGN_OR_RETURN(ExprPtr cond,
                          Bind(filter.condition(), filter.child()->output()));
      return PhysicalPlanPtr(
          std::make_shared<FilterExec>(std::move(cond), std::move(child)));
    }
    case PlanKind::kJoin:
      return PlanJoin(static_cast<const Join&>(*plan));
    case PlanKind::kAggregate:
      return PlanAggregate(static_cast<const Aggregate&>(*plan));
    case PlanKind::kSort: {
      const auto& sort = static_cast<const Sort&>(*plan);
      SL_ASSIGN_OR_RETURN(PhysicalPlanPtr child, PlanNode(sort.child()));
      std::vector<BoundSortOrder> orders;
      orders.reserve(sort.orders().size());
      for (const auto& o : sort.orders()) {
        SL_ASSIGN_OR_RETURN(ExprPtr b, Bind(o.expr, sort.child()->output()));
        orders.push_back(BoundSortOrder{b, o.ascending, o.nulls_first});
      }
      return PhysicalPlanPtr(std::make_shared<SortExec>(
          std::move(orders), EnsureSinglePartition(std::move(child))));
    }
    case PlanKind::kLimit: {
      const auto& limit = static_cast<const Limit&>(*plan);
      SL_ASSIGN_OR_RETURN(PhysicalPlanPtr child, PlanNode(limit.child()));
      return PhysicalPlanPtr(std::make_shared<LimitExec>(
          limit.n(), EnsureSinglePartition(std::move(child))));
    }
    case PlanKind::kDistinct: {
      // Normally replaced by the optimizer; lower to an aggregate here so
      // directly-planned DataFrame trees work too.
      const auto& distinct = static_cast<const Distinct&>(*plan);
      std::vector<ExprPtr> refs;
      for (const auto& a : distinct.child()->output()) {
        refs.push_back(a.ToRef());
      }
      return PlanAggregate(
          Aggregate(refs, refs, distinct.child()));
    }
    case PlanKind::kSkyline:
      return PlanSkyline(static_cast<const SkylineNode&>(*plan));
    case PlanKind::kUnresolvedRelation:
      break;
    case PlanKind::kExplainAnalyze:
      // Session::Execute peels the node off before planning; reaching the
      // planner with it still attached is a routing bug.
      break;
  }
  return Status::PlanError(
      StrCat("cannot create a physical plan for: ", plan->NodeString()));
}

Result<PhysicalPlanPtr> PhysicalPlanner::PlanJoin(const Join& join) const {
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr left, PlanNode(join.left()));
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr right, PlanNode(join.right()));

  std::vector<Attribute> combined = join.left()->output();
  {
    const auto r = join.right()->output();
    combined.insert(combined.end(), r.begin(), r.end());
  }

  // Extract equi-join keys for inner / left-outer joins.
  if (join.condition() != nullptr &&
      (join.join_type() == JoinType::kInner ||
       join.join_type() == JoinType::kLeftOuter)) {
    const auto left_ids = IdsOf(join.left()->output());
    const auto right_ids = IdsOf(join.right()->output());
    std::vector<ExprPtr> left_keys, right_keys, residual;
    for (const auto& c : SplitConjuncts(join.condition())) {
      bool is_key = false;
      if (c->kind() == ExprKind::kBinary) {
        const auto& eq = static_cast<const BinaryExpr&>(*c);
        if (eq.op() == BinaryOp::kEq) {
          if (RefsWithin(eq.left(), left_ids) &&
              RefsWithin(eq.right(), right_ids)) {
            left_keys.push_back(eq.left());
            right_keys.push_back(eq.right());
            is_key = true;
          } else if (RefsWithin(eq.left(), right_ids) &&
                     RefsWithin(eq.right(), left_ids)) {
            left_keys.push_back(eq.right());
            right_keys.push_back(eq.left());
            is_key = true;
          }
        }
      }
      if (!is_key) residual.push_back(c);
    }
    if (!left_keys.empty()) {
      for (auto& k : left_keys) {
        SL_ASSIGN_OR_RETURN(k, Bind(k, join.left()->output()));
      }
      for (auto& k : right_keys) {
        SL_ASSIGN_OR_RETURN(k, Bind(k, join.right()->output()));
      }
      ExprPtr residual_bound = nullptr;
      if (!residual.empty()) {
        SL_ASSIGN_OR_RETURN(residual_bound,
                            Bind(CombineConjuncts(residual), combined));
      }
      return PhysicalPlanPtr(std::make_shared<HashJoinExec>(
          join.join_type(), std::move(left_keys), std::move(right_keys),
          std::move(residual_bound), join.output(), std::move(left),
          std::move(right)));
    }
  }

  ExprPtr cond = nullptr;
  if (join.condition() != nullptr) {
    SL_ASSIGN_OR_RETURN(cond, Bind(join.condition(), combined));
  }
  return PhysicalPlanPtr(std::make_shared<NestedLoopJoinExec>(
      join.join_type(), std::move(cond), join.output(), std::move(left),
      std::move(right)));
}

Result<PhysicalPlanPtr> PhysicalPlanner::PlanAggregate(
    const Aggregate& agg) const {
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr child, PlanNode(agg.child()));
  const auto child_attrs = agg.child()->output();

  // Collect the distinct aggregate functions appearing in the output list.
  std::vector<ExprPtr> agg_exprs;  // logical AggregateExpr nodes
  auto find_agg = [&](const ExprPtr& e) -> int {
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      if (agg_exprs[i]->ToString() == e->ToString()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  for (const auto& item : agg.agg_list()) {
    Expression::Foreach(item, [&](const ExprPtr& n) {
      if (n->kind() == ExprKind::kAggregate && find_agg(n) < 0) {
        agg_exprs.push_back(n);
      }
    });
  }

  // Group outputs: direct column groups keep their attribute id; computed
  // group expressions mint one.
  std::vector<Attribute> group_attrs;
  for (const auto& g : agg.group_list()) {
    if (g->kind() == ExprKind::kAttributeRef) {
      group_attrs.push_back(static_cast<const AttributeRef&>(*g).attr());
    } else {
      group_attrs.push_back(Attribute{g->ToString(), g->type(), g->nullable(),
                                      NextExprId(), ""});
    }
  }
  std::vector<Attribute> agg_attrs;
  std::vector<AggSpec> specs;
  bool any_distinct = false;
  for (const auto& e : agg_exprs) {
    const auto& a = static_cast<const AggregateExpr&>(*e);
    AggSpec spec;
    spec.fn = a.fn();
    spec.distinct = a.distinct();
    any_distinct |= a.distinct();
    spec.result_type = a.type();
    if (a.child() != nullptr) {
      SL_ASSIGN_OR_RETURN(spec.bound_arg, Bind(a.child(), child_attrs));
    }
    specs.push_back(std::move(spec));
    agg_attrs.push_back(
        Attribute{e->ToString(), a.type(), a.nullable(), NextExprId(), ""});
  }

  std::vector<ExprPtr> bound_groups;
  for (const auto& g : agg.group_list()) {
    SL_ASSIGN_OR_RETURN(ExprPtr b, Bind(g, child_attrs));
    bound_groups.push_back(std::move(b));
  }

  std::vector<Attribute> exec_out = group_attrs;
  exec_out.insert(exec_out.end(), agg_attrs.begin(), agg_attrs.end());

  PhysicalPlanPtr agg_exec;
  if (any_distinct) {
    // DISTINCT aggregates: single-phase over gathered input.
    agg_exec = std::make_shared<HashAggregateExec>(
        std::move(bound_groups), specs, AggMode::kComplete, exec_out,
        EnsureSinglePartition(child));
  } else {
    // Two-phase: partial per partition, gather, final merge.
    std::vector<Attribute> partial_out = group_attrs;
    for (size_t i = 0; i < specs.size(); ++i) {
      partial_out.push_back(Attribute{StrCat("state", i), DataType::Double(),
                                      true, NextExprId(), ""});
      if (specs[i].fn == AggFn::kAvg) {
        partial_out.push_back(Attribute{StrCat("state", i, "_count"),
                                        DataType::Int64(), false, NextExprId(),
                                        ""});
      }
    }
    PhysicalPlanPtr partial = std::make_shared<HashAggregateExec>(
        bound_groups, specs, AggMode::kPartial, partial_out, child);
    PhysicalPlanPtr gathered = EnsureSinglePartition(std::move(partial));
    // Final phase re-keys on the partial group columns positionally.
    std::vector<ExprPtr> final_groups;
    for (size_t i = 0; i < group_attrs.size(); ++i) {
      final_groups.push_back(BoundReference::Make(i, group_attrs[i].type,
                                                  group_attrs[i].nullable));
    }
    agg_exec = std::make_shared<HashAggregateExec>(
        std::move(final_groups), specs, AggMode::kFinal, exec_out,
        std::move(gathered));
  }

  // Restore the logical output list on top of [groups..., aggs...].
  std::vector<ExprPtr> project_list;
  for (const auto& item : agg.agg_list()) {
    ExprPtr rewritten = Expression::Transform(item, [&](const ExprPtr& n)
                                                  -> ExprPtr {
      if (n->kind() == ExprKind::kAggregate) {
        int idx = find_agg(n);
        if (idx >= 0) return agg_attrs[static_cast<size_t>(idx)].ToRef();
      }
      // Computed group expressions are replaced by their minted output.
      for (size_t i = 0; i < agg.group_list().size(); ++i) {
        const auto& g = agg.group_list()[i];
        if (g->kind() != ExprKind::kAttributeRef &&
            g->ToString() == n->ToString()) {
          return group_attrs[i].ToRef();
        }
      }
      return n;
    });
    SL_ASSIGN_OR_RETURN(ExprPtr bound, Bind(rewritten, exec_out));
    project_list.push_back(std::move(bound));
  }
  return PhysicalPlanPtr(std::make_shared<ProjectExec>(
      std::move(project_list), agg.output(), std::move(agg_exec)));
}

Result<PhysicalPlanPtr> PhysicalPlanner::PlanSkyline(
    const SkylineNode& sky) const {
  SL_ASSIGN_OR_RETURN(PhysicalPlanPtr child, PlanNode(sky.child()));
  const auto child_attrs = sky.child()->output();

  // Bind the dimensions. Dimensions that are not plain columns are
  // materialized by a helper projection so the algorithms see ordinals.
  struct DimPlan {
    size_t ordinal;
    SkylineGoal goal;
    bool nullable;
  };
  std::vector<DimPlan> dim_plans;
  std::vector<ExprPtr> helper_exprs;  // computed dimensions to materialize
  for (const auto& d : sky.dimensions()) {
    const auto& dim = static_cast<const SkylineDimension&>(*d);
    SL_ASSIGN_OR_RETURN(ExprPtr bound, Bind(dim.child(), child_attrs));
    if (bound->kind() == ExprKind::kBoundReference) {
      const auto& ref = static_cast<const BoundReference&>(*bound);
      dim_plans.push_back(
          DimPlan{ref.ordinal(), dim.goal(), dim.child()->nullable()});
    } else {
      dim_plans.push_back(DimPlan{child_attrs.size() + helper_exprs.size(),
                                  dim.goal(), dim.child()->nullable()});
      helper_exprs.push_back(bound);
    }
  }

  PhysicalPlanPtr input = child;
  if (!helper_exprs.empty()) {
    std::vector<ExprPtr> list;
    std::vector<Attribute> extended = child_attrs;
    for (size_t i = 0; i < child_attrs.size(); ++i) {
      list.push_back(BoundReference::Make(i, child_attrs[i].type,
                                          child_attrs[i].nullable));
    }
    for (size_t i = 0; i < helper_exprs.size(); ++i) {
      list.push_back(helper_exprs[i]);
      extended.push_back(Attribute{StrCat("_skydim", i),
                                   helper_exprs[i]->type(),
                                   helper_exprs[i]->nullable(), NextExprId(),
                                   ""});
    }
    input = std::make_shared<ProjectExec>(std::move(list), extended, input);
  }

  std::vector<skyline::BoundDimension> dims;
  bool any_nullable = false;
  for (const auto& dp : dim_plans) {
    dims.push_back(skyline::BoundDimension{dp.ordinal, dp.goal});
    any_nullable |= dp.nullable;
  }

  // Listing 8: choose the algorithm. A skyline left standing under
  // strategy=reference is one Listing 4 cannot express; it runs natively.
  SkylineStrategy strategy = options_.skyline_strategy;
  if (strategy == SkylineStrategy::kAuto ||
      strategy == SkylineStrategy::kReference) {
    const bool complete_ok = sky.complete() || !any_nullable;
    strategy = complete_ok ? SkylineStrategy::kDistributedComplete
                           : SkylineStrategy::kDistributedIncomplete;
  }

  PhysicalPlanPtr result;
  switch (strategy) {
    case SkylineStrategy::kDistributedComplete:
    case SkylineStrategy::kDistributedIncomplete: {
      // Keep the child's partitioning for the local pass (the paper's
      // choice, section 5.6); angle partitioning re-shuffles first. The
      // paper routes incomplete input by null bitmap (section 5.7) so that
      // each local BNL sees one bitmap; LocalSkylineExec already reduces
      // every bitmap group of a partition on its own, which is sound on
      // any partitioning, so both semantics share one plan shape.
      const bool complete =
          strategy == SkylineStrategy::kDistributedComplete;
      PhysicalPlanPtr local_input = input;
      if (options_.skyline_partitioning == SkylinePartitioning::kAngle) {
        local_input = std::make_shared<ExchangeExec>(ExchangeMode::kAngle,
                                                     dims, local_input);
      }
      PhysicalPlanPtr gathered = EnsureSinglePartition(
          std::make_shared<LocalSkylineExec>(
              dims, sky.distinct(),
              complete ? skyline::NullSemantics::kComplete
                       : skyline::NullSemantics::kIncomplete,
              std::move(local_input),
              complete ? options_.skyline_kernel
                       : SkylineKernel::kBlockNestedLoop));
      if (complete) {
        result = std::make_shared<GlobalSkylineExec>(
            dims, sky.distinct(), std::move(gathered),
            options_.skyline_kernel);
      } else {
        result = std::make_shared<GlobalSkylineIncompleteExec>(
            dims, sky.distinct(), std::move(gathered));
      }
      break;
    }
    case SkylineStrategy::kNonDistributedComplete: {
      result = std::make_shared<GlobalSkylineExec>(
          dims, sky.distinct(), EnsureSinglePartition(std::move(input)),
          options_.skyline_kernel);
      break;
    }
    case SkylineStrategy::kAuto:
    case SkylineStrategy::kReference:
      return Status::Internal("the strategy should have been resolved");
  }

  if (!helper_exprs.empty()) {
    // Drop the helper dimension columns again.
    std::vector<ExprPtr> restore;
    for (size_t i = 0; i < child_attrs.size(); ++i) {
      restore.push_back(BoundReference::Make(i, child_attrs[i].type,
                                             child_attrs[i].nullable));
    }
    result = std::make_shared<ProjectExec>(std::move(restore), sky.output(),
                                           std::move(result));
  }
  return result;
}

}  // namespace sparkline
