// Row-at-a-time expression binding and evaluation with SQL semantics
// (three-valued logic, null propagation, numeric widening).
#pragma once

#include "expr/expression.h"
#include "types/row_view.h"

namespace sparkline {

/// \brief Rewrites AttributeRefs into ordinal BoundReferences against the
/// given input attributes (matched by ExprId). Fails on unbound references.
Result<ExprPtr> BindExpression(const ExprPtr& e,
                               const std::vector<Attribute>& input);

/// \brief Evaluates a bound expression against a row: a materialized Row,
/// or a RowRef read in place from a chunk.
///
/// SQL semantics: comparisons/arithmetic with NULL yield NULL; AND/OR follow
/// three-valued logic; division by zero yields NULL (Spark behaviour).
Result<Value> EvalExpr(const Expression& e, const Row& row);
Result<Value> EvalExpr(const Expression& e, const RowRef& row);

/// \brief Evaluates a bound predicate; returns true only for non-NULL TRUE.
Result<bool> EvalPredicate(const Expression& e, const Row& row);
Result<bool> EvalPredicate(const Expression& e, const RowRef& row);

/// \brief True if the expression contains no references, subqueries or
/// aggregates, i.e. can be folded to a literal.
bool IsConstantExpr(const ExprPtr& e);

/// \brief Evaluates a constant expression (IsConstantExpr must hold).
Result<Value> EvalConstant(const ExprPtr& e);

}  // namespace sparkline
