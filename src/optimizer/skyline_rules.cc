// Skyline-specific optimizer rules (paper section 5.4 and Listing 4).
#include <map>
#include <set>

#include "common/string_util.h"
#include "optimizer/optimizer.h"
#include "plan/plan_clone.h"

namespace sparkline {
namespace rules {

namespace {

Result<LogicalPlanPtr> TransformPlan(
    const LogicalPlanPtr& plan,
    const std::function<Result<LogicalPlanPtr>(const LogicalPlanPtr&)>& fn) {
  Status error = Status::OK();
  LogicalPlanPtr out =
      LogicalPlan::Transform(plan, [&](const LogicalPlanPtr& node) {
        if (!error.ok()) return node;
        auto result = fn(node);
        if (!result.ok()) {
          error = result.status();
          return node;
        }
        return *result;
      });
  SL_RETURN_NOT_OK(error);
  return out;
}

/// True when Listing 8 would pick the complete algorithm: the COMPLETE
/// keyword is set, or no skyline dimension is nullable.
bool InputProvablyComplete(const SkylineNode& sky) {
  if (sky.complete()) return true;
  for (const auto& d : sky.dimensions()) {
    if (static_cast<const SkylineDimension&>(*d).child()->nullable()) {
      return false;
    }
  }
  return true;
}

/// Maps attribute id -> (table name, column name) for every Scan in `plan`.
void CollectScanOrigins(
    const LogicalPlanPtr& plan,
    std::map<ExprId, std::pair<std::string, std::string>>* origins) {
  LogicalPlan::Foreach(plan, [&](const LogicalPlanPtr& node) {
    if (node->kind() != PlanKind::kScan) return;
    const auto& scan = static_cast<const Scan&>(*node);
    for (const auto& a : scan.output()) {
      (*origins)[a.id] = {scan.table()->name(), a.name};
    }
  });
}

/// Substitutes project-list aliases into `e` (so a skyline dimension over a
/// projected column maps back onto the join output).
ExprPtr SubstituteProject(const ExprPtr& e, const std::vector<ExprPtr>& list) {
  std::map<ExprId, ExprPtr> map;
  for (const auto& item : list) {
    if (item->kind() == ExprKind::kAlias) {
      const auto& alias = static_cast<const Alias&>(*item);
      map[alias.id()] = alias.child();
    }
  }
  if (map.empty()) return e;
  return Expression::Transform(e, [&](const ExprPtr& n) -> ExprPtr {
    if (n->kind() == ExprKind::kAttributeRef) {
      auto it = map.find(static_cast<const AttributeRef&>(*n).attr().id);
      if (it != map.end()) return it->second;
    }
    return n;
  });
}

}  // namespace

Result<LogicalPlanPtr> PushSkylineThroughJoin(const LogicalPlanPtr& plan) {
  return TransformPlan(plan, [](const LogicalPlanPtr& node)
                                 -> Result<LogicalPlanPtr> {
    if (node->kind() != PlanKind::kSkyline) return node;
    const auto& sky = static_cast<const SkylineNode&>(*node);
    // DISTINCT skylines deduplicate across join multiplicities; pushing
    // below the join would re-expand duplicates.
    if (sky.distinct()) return node;

    // The select-list projection usually sits between the skyline and the
    // join; see through it by substituting its aliases into the dimensions.
    std::shared_ptr<const Project> through_project;
    LogicalPlanPtr join_plan = sky.child();
    std::vector<ExprPtr> dims = sky.dimensions();
    if (join_plan->kind() == PlanKind::kProject &&
        join_plan->children()[0]->kind() == PlanKind::kJoin) {
      through_project = std::static_pointer_cast<const Project>(join_plan);
      join_plan = through_project->child();
      std::set<ExprId> join_ids;
      for (const auto& a : join_plan->output()) join_ids.insert(a.id);
      for (auto& d : dims) {
        d = SubstituteProject(d, through_project->list());
        for (const auto& a : CollectAttributes(d)) {
          if (join_ids.count(a.id) == 0) return node;  // not expressible
        }
      }
    }
    if (join_plan->kind() != PlanKind::kJoin) return node;
    const auto& join = static_cast<const Join&>(*join_plan);
    if (join.join_type() != JoinType::kInner &&
        join.join_type() != JoinType::kLeftOuter) {
      return node;
    }

    // All skyline dimensions must come from the left join side.
    std::set<ExprId> left_ids;
    for (const auto& a : join.left()->output()) left_ids.insert(a.id);
    for (const auto& d : dims) {
      for (const auto& a : CollectAttributes(d)) {
        if (left_ids.count(a.id) == 0) return node;
      }
    }

    bool non_reductive = join.join_type() == JoinType::kLeftOuter;
    if (!non_reductive) {
      // Inner join: prove non-reductiveness from declared FK metadata
      // (Carey & Kossmann via paper section 5.4). The join must be an
      // equi-join matching a declared, non-null foreign key of the left
      // side's origin table referencing the right side's scanned table.
      if (join.right()->kind() != PlanKind::kScan || join.condition() == nullptr) {
        return node;
      }
      const auto& right_scan = static_cast<const Scan&>(*join.right());
      std::map<ExprId, std::pair<std::string, std::string>> origins;
      CollectScanOrigins(join.left(), &origins);
      for (const auto& a : right_scan.output()) {
        origins[a.id] = {right_scan.table()->name(), a.name};
      }

      // Extract aligned (left column, right column) pairs.
      std::vector<std::pair<std::string, std::string>> pairs;  // (lcol, rcol)
      std::string left_table;
      for (const auto& c : SplitConjuncts(join.condition())) {
        if (c->kind() != ExprKind::kBinary) return node;
        const auto& eq = static_cast<const BinaryExpr&>(*c);
        if (eq.op() != BinaryOp::kEq) return node;
        if (eq.left()->kind() != ExprKind::kAttributeRef ||
            eq.right()->kind() != ExprKind::kAttributeRef) {
          return node;
        }
        ExprId lid = static_cast<const AttributeRef&>(*eq.left()).attr().id;
        ExprId rid = static_cast<const AttributeRef&>(*eq.right()).attr().id;
        if (left_ids.count(rid) > 0) std::swap(lid, rid);
        if (left_ids.count(lid) == 0 || origins.count(lid) == 0 ||
            origins.count(rid) == 0) {
          return node;
        }
        if (left_table.empty()) {
          left_table = origins[lid].first;
        } else if (left_table != origins[lid].first) {
          return node;
        }
        pairs.emplace_back(origins[lid].second, origins[rid].second);
      }
      if (pairs.empty()) return node;

      // Find a matching foreign key declaration.
      const auto& fks = [&]() -> const std::vector<TableConstraints::ForeignKey>* {
        LogicalPlanPtr found = nullptr;
        const std::vector<TableConstraints::ForeignKey>* result = nullptr;
        LogicalPlan::Foreach(join.left(), [&](const LogicalPlanPtr& n) {
          if (n->kind() != PlanKind::kScan || result != nullptr) return;
          const auto& scan = static_cast<const Scan&>(*n);
          if (EqualsIgnoreCase(scan.table()->name(), left_table)) {
            result = &scan.table()->constraints().foreign_keys;
            found = n;
          }
        });
        return result;
      }();
      if (fks == nullptr) return node;
      for (const auto& fk : *fks) {
        if (!fk.referencing_not_null) continue;
        if (!EqualsIgnoreCase(fk.ref_table, right_scan.table()->name())) {
          continue;
        }
        if (fk.columns.size() != pairs.size()) continue;
        bool all = true;
        for (const auto& [lcol, rcol] : pairs) {
          bool hit = false;
          for (size_t i = 0; i < fk.columns.size(); ++i) {
            if (EqualsIgnoreCase(fk.columns[i], lcol) &&
                EqualsIgnoreCase(fk.ref_columns[i], rcol)) {
              hit = true;
              break;
            }
          }
          all &= hit;
        }
        if (all) {
          non_reductive = true;
          break;
        }
      }
    }
    if (!non_reductive) return node;

    LogicalPlanPtr pushed = SkylineNode::Make(sky.distinct(), sky.complete(),
                                              std::move(dims), join.left());
    LogicalPlanPtr new_join = Join::Make(
        std::move(pushed), join.right(), join.join_type(), join.condition(),
        {});
    if (through_project != nullptr) {
      return Project::Make(through_project->list(), std::move(new_join));
    }
    return new_join;
  });
}

Result<LogicalPlanPtr> SkylineToReference(const LogicalPlanPtr& plan) {
  return TransformPlan(plan, [](const LogicalPlanPtr& node)
                                 -> Result<LogicalPlanPtr> {
    if (node->kind() != PlanKind::kSkyline) return node;
    const auto& sky = static_cast<const SkylineNode&>(*node);
    if (sky.distinct()) {
      // Listing 4 cannot express SKYLINE OF DISTINCT; keep the native node.
      return node;
    }

    std::map<ExprId, ExprId> ids;
    SL_ASSIGN_OR_RETURN(LogicalPlanPtr inner,
                        CloneWithFreshIds(sky.child(), &ids));

    // Dominance predicate of Listing 4: the inner tuple is at least as good
    // everywhere (equal on DIFF dims) and strictly better somewhere. Where
    // the planner would run the incomplete algorithm, dominance compares
    // only the dimensions both tuples hold: each no-worse conjunct also
    // holds when either side is NULL, and a strict comparison with a NULL
    // side is unknown, so the disjunction needs one shared dimension that
    // is strictly better.
    const bool incomplete = !InputProvablyComplete(sky);
    std::vector<ExprPtr> non_strict;
    std::vector<ExprPtr> strict;
    for (const auto& d : sky.dimensions()) {
      const auto& dim = static_cast<const SkylineDimension&>(*d);
      ExprPtr outer_e = dim.child();
      ExprPtr inner_e = RemapAttributeIds(dim.child(), ids);
      auto no_worse = [&](BinaryOp op) {
        ExprPtr cmp = BinaryExpr::Make(op, inner_e, outer_e);
        if (!incomplete) return cmp;
        return BinaryExpr::Make(
            BinaryOp::kOr,
            BinaryExpr::Make(BinaryOp::kOr,
                             UnaryExpr::Make(UnaryOp::kIsNull, inner_e),
                             UnaryExpr::Make(UnaryOp::kIsNull, outer_e)),
            std::move(cmp));
      };
      switch (dim.goal()) {
        case SkylineGoal::kMin:
          non_strict.push_back(no_worse(BinaryOp::kLe));
          strict.push_back(BinaryExpr::Make(BinaryOp::kLt, inner_e, outer_e));
          break;
        case SkylineGoal::kMax:
          non_strict.push_back(no_worse(BinaryOp::kGe));
          strict.push_back(BinaryExpr::Make(BinaryOp::kGt, inner_e, outer_e));
          break;
        case SkylineGoal::kDiff:
          non_strict.push_back(no_worse(BinaryOp::kEq));
          break;
      }
    }
    if (strict.empty()) {
      // Only DIFF dimensions: nothing can dominate anything.
      return sky.child();
    }
    ExprPtr any_strict = nullptr;
    for (const auto& s : strict) {
      any_strict = any_strict == nullptr
                       ? s
                       : BinaryExpr::Make(BinaryOp::kOr, any_strict, s);
    }
    non_strict.push_back(any_strict);
    return Join::Make(sky.child(), std::move(inner), JoinType::kLeftAnti,
                      CombineConjuncts(non_strict), {});
  });
}

}  // namespace rules
}  // namespace sparkline
