#include "plan/logical_plan.h"

#include <set>

#include "common/string_util.h"

namespace sparkline {

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "Inner";
    case JoinType::kLeftOuter:
      return "LeftOuter";
    case JoinType::kCross:
      return "Cross";
    case JoinType::kLeftSemi:
      return "LeftSemi";
    case JoinType::kLeftAnti:
      return "LeftAnti";
  }
  return "?";
}

LogicalPlanPtr LogicalPlan::WithNewExpressions(std::vector<ExprPtr>) const {
  return shared_from_this();
}

bool LogicalPlan::resolved() const {
  for (const auto& c : children()) {
    if (!c->resolved()) return false;
  }
  for (const auto& e : expressions()) {
    if (!e->resolved()) return false;
  }
  return true;
}

std::string LogicalPlan::TreeString() const {
  std::string out = NodeString();
  for (const auto& c : children()) {
    out += "\n";
    out += Indent(c->TreeString(), 2);
  }
  return out;
}

std::vector<Attribute> LogicalPlan::MissingInput() const {
  std::set<ExprId> available;
  for (const auto& c : children()) {
    for (const auto& a : c->output()) available.insert(a.id);
  }
  std::vector<Attribute> missing;
  std::set<ExprId> seen;
  for (const auto& e : expressions()) {
    if (!e->resolved()) continue;
    for (const auto& a : CollectAttributes(e)) {
      if (available.count(a.id) == 0 && seen.insert(a.id).second) {
        missing.push_back(a);
      }
    }
  }
  return missing;
}

LogicalPlanPtr LogicalPlan::Transform(
    const LogicalPlanPtr& plan,
    const std::function<LogicalPlanPtr(const LogicalPlanPtr&)>& fn) {
  auto children = plan->children();
  bool changed = false;
  for (auto& c : children) {
    LogicalPlanPtr nc = Transform(c, fn);
    if (nc != c) {
      c = nc;
      changed = true;
    }
  }
  LogicalPlanPtr base =
      changed ? plan->WithNewChildren(std::move(children)) : plan;
  return fn(base);
}

void LogicalPlan::Foreach(
    const LogicalPlanPtr& plan,
    const std::function<void(const LogicalPlanPtr&)>& fn) {
  fn(plan);
  for (const auto& c : plan->children()) Foreach(c, fn);
}

LogicalPlanPtr LogicalPlan::TransformExpressions(
    const LogicalPlanPtr& plan,
    const std::function<ExprPtr(const ExprPtr&)>& fn) {
  return Transform(plan, [&](const LogicalPlanPtr& node) -> LogicalPlanPtr {
    auto exprs = node->expressions();
    if (exprs.empty()) return node;
    bool changed = false;
    for (auto& e : exprs) {
      ExprPtr ne = Expression::Transform(e, fn);
      if (ne != e) {
        e = ne;
        changed = true;
      }
    }
    return changed ? node->WithNewExpressions(std::move(exprs)) : node;
  });
}

std::string UnresolvedRelation::NodeString() const {
  return StrCat("UnresolvedRelation [", name_, "]");
}

LogicalPlanPtr Scan::Make(TablePtr table) {
  std::vector<Attribute> attrs;
  std::vector<size_t> indices;
  attrs.reserve(table->schema().num_fields());
  for (const auto& f : table->schema().fields()) {
    attrs.push_back(Attribute{f.name, f.type, f.nullable, NextExprId(), ""});
    indices.push_back(indices.size());
  }
  return std::make_shared<Scan>(std::move(table), std::move(attrs),
                                std::move(indices));
}

std::string Scan::NodeString() const {
  std::vector<std::string> cols;
  cols.reserve(attrs_.size());
  for (const auto& a : attrs_) cols.push_back(a.ToString());
  return StrCat("Scan ", table_->name(), " [", JoinStrings(cols, ", "), "]");
}

LogicalPlanPtr LocalRelation::Make(const Schema& schema,
                                   std::vector<Row> rows) {
  std::vector<Attribute> attrs;
  attrs.reserve(schema.num_fields());
  for (const auto& f : schema.fields()) {
    attrs.push_back(Attribute{f.name, f.type, f.nullable, NextExprId(), ""});
  }
  return std::make_shared<LocalRelation>(
      std::move(attrs), ChunkedRows::Single(std::move(rows)));
}

std::string LocalRelation::NodeString() const {
  return StrCat("LocalRelation [", rows_->size(), " rows]");
}

std::vector<Attribute> SubqueryAlias::output() const {
  std::vector<Attribute> out = child_->output();
  for (auto& a : out) a.qualifier = alias_;
  return out;
}

std::string SubqueryAlias::NodeString() const {
  return StrCat("SubqueryAlias ", alias_);
}

std::vector<Attribute> Project::output() const {
  std::vector<Attribute> out;
  out.reserve(list_.size());
  for (const auto& e : list_) {
    if (e->kind() == ExprKind::kAlias) {
      out.push_back(static_cast<const Alias&>(*e).ToAttribute());
    } else if (e->kind() == ExprKind::kAttributeRef) {
      out.push_back(static_cast<const AttributeRef&>(*e).attr());
    } else {
      // Unresolved or non-named item; placeholder until analysis wraps it.
      out.push_back(Attribute{e->ToString(), e->type(), true, 0, ""});
    }
  }
  return out;
}

bool Project::resolved() const {
  if (!LogicalPlan::resolved()) return false;
  for (const auto& e : list_) {
    if (e->kind() != ExprKind::kAlias && e->kind() != ExprKind::kAttributeRef) {
      return false;
    }
  }
  return true;
}

std::string Project::NodeString() const {
  std::vector<std::string> items;
  items.reserve(list_.size());
  for (const auto& e : list_) items.push_back(e->ToString());
  return StrCat("Project [", JoinStrings(items, ", "), "]");
}

std::string Filter::NodeString() const {
  return StrCat("Filter ", condition_->ToString());
}

std::vector<Attribute> Join::output() const {
  std::vector<Attribute> out = left_->output();
  if (type_ == JoinType::kLeftSemi || type_ == JoinType::kLeftAnti) {
    return out;
  }
  std::vector<Attribute> right = right_->output();
  if (type_ == JoinType::kLeftOuter) {
    for (auto& a : right) a.nullable = true;
  }
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

bool Join::resolved() const {
  // USING joins stay unresolved until the analyzer rewrites them.
  if (!using_columns_.empty()) return false;
  return LogicalPlan::resolved();
}

std::string Join::NodeString() const {
  std::string out = StrCat("Join ", JoinTypeName(type_));
  if (!using_columns_.empty()) {
    out += StrCat(" USING(", JoinStrings(using_columns_, ", "), ")");
  }
  if (condition_ != nullptr) out += StrCat(" ON ", condition_->ToString());
  return out;
}

std::vector<ExprPtr> Aggregate::expressions() const {
  std::vector<ExprPtr> out = group_list_;
  out.insert(out.end(), agg_list_.begin(), agg_list_.end());
  return out;
}

LogicalPlanPtr Aggregate::WithNewExpressions(std::vector<ExprPtr> exprs) const {
  std::vector<ExprPtr> groups(exprs.begin(),
                              exprs.begin() + group_list_.size());
  std::vector<ExprPtr> aggs(exprs.begin() + group_list_.size(), exprs.end());
  return std::make_shared<Aggregate>(std::move(groups), std::move(aggs),
                                     child_);
}

std::vector<Attribute> Aggregate::output() const {
  std::vector<Attribute> out;
  out.reserve(agg_list_.size());
  for (const auto& e : agg_list_) {
    if (e->kind() == ExprKind::kAlias) {
      out.push_back(static_cast<const Alias&>(*e).ToAttribute());
    } else if (e->kind() == ExprKind::kAttributeRef) {
      out.push_back(static_cast<const AttributeRef&>(*e).attr());
    } else {
      out.push_back(Attribute{e->ToString(), e->type(), true, 0, ""});
    }
  }
  return out;
}

bool Aggregate::resolved() const {
  if (!LogicalPlan::resolved()) return false;
  for (const auto& e : agg_list_) {
    if (e->kind() != ExprKind::kAlias && e->kind() != ExprKind::kAttributeRef) {
      return false;
    }
  }
  return true;
}

std::string Aggregate::NodeString() const {
  std::vector<std::string> groups, aggs;
  for (const auto& e : group_list_) groups.push_back(e->ToString());
  for (const auto& e : agg_list_) aggs.push_back(e->ToString());
  return StrCat("Aggregate [", JoinStrings(groups, ", "), "] [", JoinStrings(aggs, ", "),
                "]");
}

std::vector<ExprPtr> Sort::expressions() const {
  std::vector<ExprPtr> out;
  out.reserve(orders_.size());
  for (const auto& o : orders_) out.push_back(o.expr);
  return out;
}

LogicalPlanPtr Sort::WithNewExpressions(std::vector<ExprPtr> exprs) const {
  std::vector<SortOrder> orders = orders_;
  for (size_t i = 0; i < orders.size(); ++i) orders[i].expr = exprs[i];
  return std::make_shared<Sort>(std::move(orders), child_);
}

std::string Sort::NodeString() const {
  std::vector<std::string> items;
  items.reserve(orders_.size());
  for (const auto& o : orders_) items.push_back(o.ToString());
  return StrCat("Sort [", JoinStrings(items, ", "), "]");
}

std::string Limit::NodeString() const { return StrCat("Limit ", n_); }

std::string Distinct::NodeString() const { return "Distinct"; }

std::string SkylineNode::NodeString() const {
  std::vector<std::string> dims;
  dims.reserve(dimensions_.size());
  for (const auto& d : dimensions_) dims.push_back(d->ToString());
  return StrCat("Skyline", distinct_ ? " DISTINCT" : "",
                complete_ ? " COMPLETE" : "", " [", JoinStrings(dims, ", "), "]");
}

std::vector<Attribute> ExplainAnalyzeNode::output() const {
  // One stable synthetic column; minted once per node so repeated output()
  // calls agree.
  static const ExprId id = NextExprId();
  return {Attribute{"plan", DataType::String(), false, id, ""}};
}

std::string ExplainAnalyzeNode::NodeString() const { return "ExplainAnalyze"; }

}  // namespace sparkline
