// Semantic validation of resolved plans (type checks, aggregate placement,
// skyline dimensions). Runs as the analyzer's last step, like Spark's
// CheckAnalysis.
#include "analysis/analyzer.h"
#include "common/string_util.h"

namespace sparkline {

namespace {

Status CheckExprTypes(const ExprPtr& e) {
  for (const auto& c : e->children()) {
    SL_RETURN_NOT_OK(CheckExprTypes(c));
  }
  if (e->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*e);
    const DataType lt = bin.left()->type();
    const DataType rt = bin.right()->type();
    if (IsComparisonOp(bin.op()) && !TypesComparable(lt, rt)) {
      return Status::AnalysisError(
          StrCat("cannot compare ", lt.ToString(), " with ", rt.ToString(),
                 " in ", e->ToString()));
    }
    if (IsArithmeticOp(bin.op()) && (!lt.is_numeric() || !rt.is_numeric())) {
      return Status::AnalysisError(
          StrCat("arithmetic requires numeric operands in ", e->ToString()));
    }
    if (IsLogicalOp(bin.op()) &&
        (lt != DataType::Bool() || rt != DataType::Bool())) {
      return Status::AnalysisError(
          StrCat("AND/OR require boolean operands in ", e->ToString()));
    }
  }
  if (e->kind() == ExprKind::kUnary) {
    const auto& un = static_cast<const UnaryExpr&>(*e);
    if (un.op() == UnaryOp::kNot && un.child()->type() != DataType::Bool()) {
      return Status::AnalysisError(
          StrCat("NOT requires a boolean operand in ", e->ToString()));
    }
    if (un.op() == UnaryOp::kNegate && !un.child()->type().is_numeric()) {
      return Status::AnalysisError(
          StrCat("unary minus requires a numeric operand in ", e->ToString()));
    }
  }
  if (e->kind() == ExprKind::kAggregate) {
    const auto& agg = static_cast<const AggregateExpr&>(*e);
    if (agg.child() != nullptr && agg.child()->ContainsAggregate()) {
      return Status::AnalysisError(
          StrCat("nested aggregate functions: ", e->ToString()));
    }
    if ((agg.fn() == AggFn::kSum || agg.fn() == AggFn::kAvg) &&
        !agg.child()->type().is_numeric()) {
      return Status::AnalysisError(
          StrCat(AggFnName(agg.fn()), "() requires a numeric argument in ",
                 e->ToString()));
    }
  }
  return Status::OK();
}

/// An aggregate output expression is valid if every leaf-ward path ends in
/// an aggregate function, a grouping expression, or a literal.
bool ValidAggOutput(const ExprPtr& e, const std::vector<ExprPtr>& groups) {
  if (e->kind() == ExprKind::kAggregate ||
      e->kind() == ExprKind::kLiteral) {
    return true;
  }
  for (const auto& g : groups) {
    if (g->ToString() == e->ToString()) return true;
    // Grouping columns match by attribute id regardless of qualifier.
    if (g->kind() == ExprKind::kAttributeRef &&
        e->kind() == ExprKind::kAttributeRef &&
        static_cast<const AttributeRef&>(*g).attr().id ==
            static_cast<const AttributeRef&>(*e).attr().id) {
      return true;
    }
  }
  if (e->kind() == ExprKind::kAttributeRef) return false;
  auto children = e->children();
  if (children.empty()) return true;
  for (const auto& c : children) {
    if (!ValidAggOutput(c, groups)) return false;
  }
  return true;
}

Status CheckNode(const LogicalPlanPtr& node) {
  for (const auto& e : node->expressions()) {
    if (!e->resolved()) {
      return Status::AnalysisError(
          StrCat("unresolved expression survived analysis: ", e->ToString(),
             " in ", node->NodeString()));
    }
    SL_RETURN_NOT_OK(CheckExprTypes(e));
  }
  switch (node->kind()) {
    case PlanKind::kFilter: {
      const auto& f = static_cast<const Filter&>(*node);
      if (f.condition()->type() != DataType::Bool()) {
        return Status::AnalysisError(
            StrCat("filter condition is not boolean: ",
                   f.condition()->ToString()));
      }
      break;
    }
    case PlanKind::kJoin: {
      const auto& j = static_cast<const Join&>(*node);
      if (j.condition() != nullptr &&
          j.condition()->type() != DataType::Bool()) {
        return Status::AnalysisError(
            StrCat("join condition is not boolean: ",
                   j.condition()->ToString()));
      }
      if (j.condition() == nullptr && j.join_type() == JoinType::kLeftOuter) {
        return Status::AnalysisError("LEFT OUTER JOIN requires a condition");
      }
      break;
    }
    case PlanKind::kAggregate: {
      const auto& agg = static_cast<const Aggregate&>(*node);
      for (const auto& item : agg.agg_list()) {
        const ExprPtr checked =
            item->kind() == ExprKind::kAlias
                ? static_cast<const Alias&>(*item).child()
                : item;
        if (!ValidAggOutput(checked, agg.group_list())) {
          return Status::AnalysisError(StrCat(
              "expression ", item->ToString(),
              " is neither an aggregate nor in the GROUP BY clause"));
        }
      }
      break;
    }
    case PlanKind::kSkyline: {
      const auto& sky = static_cast<const SkylineNode&>(*node);
      if (sky.dimensions().empty()) {
        return Status::AnalysisError("SKYLINE OF requires dimensions");
      }
      // Any type may carry any goal: CompareValues totally orders every
      // SQL type, VARCHAR included.
      for (const auto& d : sky.dimensions()) {
        if (d->kind() != ExprKind::kSkylineDimension) {
          return Status::Internal(
              StrCat("skyline dimension has wrong kind: ", d->ToString()));
        }
      }
      if (sky.dimensions().size() > 32) {
        return Status::AnalysisError("at most 32 skyline dimensions");
      }
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

}  // namespace

Status ValidatePlan(const LogicalPlanPtr& plan) {
  Status status = Status::OK();
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& node) {
    if (!status.ok()) return;
    status = CheckNode(node);
  });
  if (status.ok() && !plan->resolved()) {
    return Status::AnalysisError(
        StrCat("plan is not fully resolved:\n", plan->TreeString()));
  }
  return status;
}

}  // namespace sparkline
