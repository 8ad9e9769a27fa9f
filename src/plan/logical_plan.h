// Logical query plans (Spark SQL's LogicalPlan analog).
//
// The paper's skyline operator is one node with one child (section 5.2);
// the node carries the DISTINCT / COMPLETE flags and the SkylineDimension
// expressions. All nodes are immutable and rewritten functionally.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "expr/expression.h"

namespace sparkline {

enum class PlanKind : uint8_t {
  kUnresolvedRelation,
  kScan,
  kLocalRelation,
  kSubqueryAlias,
  kProject,
  kFilter,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
  kSkyline,
  kExplainAnalyze,
};

enum class JoinType : uint8_t { kInner, kLeftOuter, kCross, kLeftSemi, kLeftAnti };
const char* JoinTypeName(JoinType t);

class LogicalPlan;
using LogicalPlanPtr = std::shared_ptr<const LogicalPlan>;

/// \brief Base class of all logical operators.
class LogicalPlan : public std::enable_shared_from_this<LogicalPlan> {
 public:
  explicit LogicalPlan(PlanKind kind) : kind_(kind) {}
  virtual ~LogicalPlan() = default;

  PlanKind kind() const { return kind_; }

  virtual std::vector<LogicalPlanPtr> children() const = 0;
  virtual LogicalPlanPtr WithNewChildren(
      std::vector<LogicalPlanPtr> children) const = 0;

  /// The attributes this operator produces (valid once resolved()).
  virtual std::vector<Attribute> output() const = 0;

  /// Expressions held directly by this node, in a stable order.
  virtual std::vector<ExprPtr> expressions() const { return {}; }
  /// Rebuilds the node with rewritten expressions (same count/order as
  /// expressions()).
  virtual LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const;

  /// True when this node and its subtree contain no unresolved names.
  virtual bool resolved() const;

  /// One-line description ("Filter (price < 100)").
  virtual std::string NodeString() const = 0;
  /// Indented multi-line plan tree.
  std::string TreeString() const;

  /// Attributes referenced by this node's expressions but not produced by
  /// any child (Catalyst's missingInput; drives ResolveMissingReferences).
  std::vector<Attribute> MissingInput() const;

  /// Bottom-up functional rewrite over the plan tree.
  static LogicalPlanPtr Transform(
      const LogicalPlanPtr& plan,
      const std::function<LogicalPlanPtr(const LogicalPlanPtr&)>& fn);
  /// Pre-order traversal.
  static void Foreach(const LogicalPlanPtr& plan,
                      const std::function<void(const LogicalPlanPtr&)>& fn);
  /// Rewrites every expression in every node of the tree bottom-up.
  static LogicalPlanPtr TransformExpressions(
      const LogicalPlanPtr& plan,
      const std::function<ExprPtr(const ExprPtr&)>& fn);

 private:
  PlanKind kind_;
};

/// \brief A table name before catalog resolution.
class UnresolvedRelation : public LogicalPlan {
 public:
  explicit UnresolvedRelation(std::string name)
      : LogicalPlan(PlanKind::kUnresolvedRelation), name_(std::move(name)) {}
  static LogicalPlanPtr Make(std::string name) {
    return std::make_shared<UnresolvedRelation>(std::move(name));
  }

  const std::string& name() const { return name_; }
  std::vector<LogicalPlanPtr> children() const override { return {}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr>) const override {
    return shared_from_this();
  }
  std::vector<Attribute> output() const override { return {}; }
  bool resolved() const override { return false; }
  std::string NodeString() const override;

 private:
  std::string name_;
};

/// \brief A resolved scan over a catalog table. Each instantiation mints
/// fresh attribute ids, which keeps self-joins (e.g. the reference skyline
/// rewriting) unambiguous.
class Scan : public LogicalPlan {
 public:
  Scan(TablePtr table, std::vector<Attribute> attrs,
       std::vector<size_t> column_indices)
      : LogicalPlan(PlanKind::kScan),
        table_(std::move(table)),
        attrs_(std::move(attrs)),
        column_indices_(std::move(column_indices)) {}

  /// Creates a scan of all columns with freshly minted attribute ids.
  static LogicalPlanPtr Make(TablePtr table);

  const TablePtr& table() const { return table_; }
  /// Table column index backing each output attribute (column pruning keeps
  /// these in sync with attrs()).
  const std::vector<size_t>& column_indices() const { return column_indices_; }
  std::vector<LogicalPlanPtr> children() const override { return {}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr>) const override {
    return shared_from_this();
  }
  std::vector<Attribute> output() const override { return attrs_; }
  std::string NodeString() const override;

 private:
  TablePtr table_;
  std::vector<Attribute> attrs_;
  std::vector<size_t> column_indices_;
};

/// \brief Inline rows (used by tests and the DataFrame API), converted once
/// into one column-oriented chunk (ChunkedRows::Single) that every plan of
/// this node reads in place.
class LocalRelation : public LogicalPlan {
 public:
  LocalRelation(std::vector<Attribute> attrs,
                std::shared_ptr<const ChunkedRows> rows)
      : LogicalPlan(PlanKind::kLocalRelation),
        attrs_(std::move(attrs)),
        rows_(std::move(rows)) {}
  static LogicalPlanPtr Make(const Schema& schema, std::vector<Row> rows);

  const std::shared_ptr<const ChunkedRows>& rows() const { return rows_; }
  std::vector<LogicalPlanPtr> children() const override { return {}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr>) const override {
    return shared_from_this();
  }
  std::vector<Attribute> output() const override { return attrs_; }
  std::string NodeString() const override;

 private:
  std::vector<Attribute> attrs_;
  std::shared_ptr<const ChunkedRows> rows_;
};

/// \brief Attaches an alias qualifier to a subtree ("FROM (...) AS t").
class SubqueryAlias : public LogicalPlan {
 public:
  SubqueryAlias(std::string alias, LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kSubqueryAlias),
        alias_(std::move(alias)),
        child_(std::move(child)) {}
  static LogicalPlanPtr Make(std::string alias, LogicalPlanPtr child) {
    return std::make_shared<SubqueryAlias>(std::move(alias), std::move(child));
  }

  const std::string& alias() const { return alias_; }
  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<SubqueryAlias>(alias_, c[0]);
  }
  std::vector<Attribute> output() const override;
  std::string NodeString() const override;

 private:
  std::string alias_;
  LogicalPlanPtr child_;
};

/// \brief Projection; every item must be an Alias or AttributeRef once
/// resolved (the analyzer wraps computed items in Aliases).
class Project : public LogicalPlan {
 public:
  Project(std::vector<ExprPtr> list, LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kProject),
        list_(std::move(list)),
        child_(std::move(child)) {}
  static LogicalPlanPtr Make(std::vector<ExprPtr> list, LogicalPlanPtr child) {
    return std::make_shared<Project>(std::move(list), std::move(child));
  }

  const std::vector<ExprPtr>& list() const { return list_; }
  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Project>(list_, c[0]);
  }
  std::vector<ExprPtr> expressions() const override { return list_; }
  LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const override {
    return std::make_shared<Project>(std::move(exprs), child_);
  }
  std::vector<Attribute> output() const override;
  bool resolved() const override;
  std::string NodeString() const override;

 private:
  std::vector<ExprPtr> list_;
  LogicalPlanPtr child_;
};

/// \brief Row filter (WHERE and HAVING both lower to Filter, as in Spark).
class Filter : public LogicalPlan {
 public:
  Filter(ExprPtr condition, LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kFilter),
        condition_(std::move(condition)),
        child_(std::move(child)) {}
  static LogicalPlanPtr Make(ExprPtr condition, LogicalPlanPtr child) {
    return std::make_shared<Filter>(std::move(condition), std::move(child));
  }

  const ExprPtr& condition() const { return condition_; }
  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Filter>(condition_, c[0]);
  }
  std::vector<ExprPtr> expressions() const override { return {condition_}; }
  LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const override {
    return std::make_shared<Filter>(exprs[0], child_);
  }
  std::vector<Attribute> output() const override { return child_->output(); }
  std::string NodeString() const override;

 private:
  ExprPtr condition_;
  LogicalPlanPtr child_;
};

/// \brief Binary join. `using_columns` is kept for USING(...) joins until the
/// analyzer rewrites them into an equality condition + projection.
class Join : public LogicalPlan {
 public:
  Join(LogicalPlanPtr left, LogicalPlanPtr right, JoinType type,
       ExprPtr condition, std::vector<std::string> using_columns = {})
      : LogicalPlan(PlanKind::kJoin),
        left_(std::move(left)),
        right_(std::move(right)),
        type_(type),
        condition_(std::move(condition)),
        using_columns_(std::move(using_columns)) {}
  static LogicalPlanPtr Make(LogicalPlanPtr left, LogicalPlanPtr right,
                             JoinType type, ExprPtr condition,
                             std::vector<std::string> using_columns = {}) {
    return std::make_shared<Join>(std::move(left), std::move(right), type,
                                  std::move(condition),
                                  std::move(using_columns));
  }

  const LogicalPlanPtr& left() const { return left_; }
  const LogicalPlanPtr& right() const { return right_; }
  JoinType join_type() const { return type_; }
  const ExprPtr& condition() const { return condition_; }
  const std::vector<std::string>& using_columns() const {
    return using_columns_;
  }

  std::vector<LogicalPlanPtr> children() const override {
    return {left_, right_};
  }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Join>(c[0], c[1], type_, condition_,
                                  using_columns_);
  }
  std::vector<ExprPtr> expressions() const override {
    if (condition_ == nullptr) return {};
    return {condition_};
  }
  LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const override {
    return std::make_shared<Join>(left_, right_, type_,
                                  exprs.empty() ? nullptr : exprs[0],
                                  using_columns_);
  }
  std::vector<Attribute> output() const override;
  bool resolved() const override;
  std::string NodeString() const override;

 private:
  LogicalPlanPtr left_;
  LogicalPlanPtr right_;
  JoinType type_;
  ExprPtr condition_;  // may be null (cross joins, unresolved USING)
  std::vector<std::string> using_columns_;
};

/// \brief Grouped aggregation; `agg_list` is the output list (group
/// expressions and/or aggregate expressions, each Alias/AttributeRef once
/// resolved).
class Aggregate : public LogicalPlan {
 public:
  Aggregate(std::vector<ExprPtr> group_list, std::vector<ExprPtr> agg_list,
            LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kAggregate),
        group_list_(std::move(group_list)),
        agg_list_(std::move(agg_list)),
        child_(std::move(child)) {}
  static LogicalPlanPtr Make(std::vector<ExprPtr> group_list,
                             std::vector<ExprPtr> agg_list,
                             LogicalPlanPtr child) {
    return std::make_shared<Aggregate>(std::move(group_list),
                                       std::move(agg_list), std::move(child));
  }

  const std::vector<ExprPtr>& group_list() const { return group_list_; }
  const std::vector<ExprPtr>& agg_list() const { return agg_list_; }
  const LogicalPlanPtr& child() const { return child_; }

  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Aggregate>(group_list_, agg_list_, c[0]);
  }
  std::vector<ExprPtr> expressions() const override;
  LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const override;
  std::vector<Attribute> output() const override;
  bool resolved() const override;
  std::string NodeString() const override;

 private:
  std::vector<ExprPtr> group_list_;
  std::vector<ExprPtr> agg_list_;
  LogicalPlanPtr child_;
};

/// \brief ORDER BY.
class Sort : public LogicalPlan {
 public:
  Sort(std::vector<SortOrder> orders, LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kSort),
        orders_(std::move(orders)),
        child_(std::move(child)) {}
  static LogicalPlanPtr Make(std::vector<SortOrder> orders,
                             LogicalPlanPtr child) {
    return std::make_shared<Sort>(std::move(orders), std::move(child));
  }

  const std::vector<SortOrder>& orders() const { return orders_; }
  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Sort>(orders_, c[0]);
  }
  std::vector<ExprPtr> expressions() const override;
  LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const override;
  std::vector<Attribute> output() const override { return child_->output(); }
  std::string NodeString() const override;

 private:
  std::vector<SortOrder> orders_;
  LogicalPlanPtr child_;
};

/// \brief LIMIT n.
class Limit : public LogicalPlan {
 public:
  Limit(int64_t n, LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kLimit), n_(n), child_(std::move(child)) {}
  static LogicalPlanPtr Make(int64_t n, LogicalPlanPtr child) {
    return std::make_shared<Limit>(n, std::move(child));
  }

  int64_t n() const { return n_; }
  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Limit>(n_, c[0]);
  }
  std::vector<Attribute> output() const override { return child_->output(); }
  std::string NodeString() const override;

 private:
  int64_t n_;
  LogicalPlanPtr child_;
};

/// \brief SELECT DISTINCT (replaced by an Aggregate during optimization).
class Distinct : public LogicalPlan {
 public:
  explicit Distinct(LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kDistinct), child_(std::move(child)) {}
  static LogicalPlanPtr Make(LogicalPlanPtr child) {
    return std::make_shared<Distinct>(std::move(child));
  }

  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<Distinct>(c[0]);
  }
  std::vector<Attribute> output() const override { return child_->output(); }
  std::string NodeString() const override;

 private:
  LogicalPlanPtr child_;
};

/// \brief The skyline operator node (paper section 5.2): one child, the
/// DISTINCT / COMPLETE flags, and the skyline dimensions. Output schema
/// equals the child's.
class SkylineNode : public LogicalPlan {
 public:
  SkylineNode(bool distinct, bool complete, std::vector<ExprPtr> dimensions,
              LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kSkyline),
        distinct_(distinct),
        complete_(complete),
        dimensions_(std::move(dimensions)),
        child_(std::move(child)) {}
  static LogicalPlanPtr Make(bool distinct, bool complete,
                             std::vector<ExprPtr> dimensions,
                             LogicalPlanPtr child) {
    return std::make_shared<SkylineNode>(distinct, complete,
                                         std::move(dimensions),
                                         std::move(child));
  }

  bool distinct() const { return distinct_; }
  bool complete() const { return complete_; }
  /// Each element is a SkylineDimension expression.
  const std::vector<ExprPtr>& dimensions() const { return dimensions_; }
  const LogicalPlanPtr& child() const { return child_; }

  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<SkylineNode>(distinct_, complete_, dimensions_,
                                         c[0]);
  }
  std::vector<ExprPtr> expressions() const override { return dimensions_; }
  LogicalPlanPtr WithNewExpressions(std::vector<ExprPtr> exprs) const override {
    return std::make_shared<SkylineNode>(distinct_, complete_,
                                         std::move(exprs), child_);
  }
  std::vector<Attribute> output() const override { return child_->output(); }
  std::string NodeString() const override;

 private:
  bool distinct_;
  bool complete_;
  std::vector<ExprPtr> dimensions_;
  LogicalPlanPtr child_;
};

/// \brief EXPLAIN ANALYZE <stmt>: executes the child statement and returns
/// one row with one string column — the physical plan tree annotated with
/// the measured per-operator critical-path times, rows, matrix builds /
/// reuses and SFS skips. Never cache-served (fingerprinting marks it
/// uncacheable): the measurement IS the point.
class ExplainAnalyzeNode : public LogicalPlan {
 public:
  explicit ExplainAnalyzeNode(LogicalPlanPtr child)
      : LogicalPlan(PlanKind::kExplainAnalyze), child_(std::move(child)) {}
  static LogicalPlanPtr Make(LogicalPlanPtr child) {
    return std::make_shared<ExplainAnalyzeNode>(std::move(child));
  }

  const LogicalPlanPtr& child() const { return child_; }
  std::vector<LogicalPlanPtr> children() const override { return {child_}; }
  LogicalPlanPtr WithNewChildren(std::vector<LogicalPlanPtr> c) const override {
    return std::make_shared<ExplainAnalyzeNode>(c[0]);
  }
  std::vector<Attribute> output() const override;
  std::string NodeString() const override;

 private:
  LogicalPlanPtr child_;
};

}  // namespace sparkline
