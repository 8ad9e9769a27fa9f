#include "expr/evaluator.h"

#include <cmath>

#include "common/string_util.h"

namespace sparkline {

Result<ExprPtr> BindExpression(const ExprPtr& e,
                               const std::vector<Attribute>& input) {
  switch (e->kind()) {
    case ExprKind::kAttributeRef: {
      const auto& attr = static_cast<const AttributeRef&>(*e).attr();
      for (size_t i = 0; i < input.size(); ++i) {
        if (input[i].id == attr.id) {
          return BoundReference::Make(i, attr.type, attr.nullable);
        }
      }
      return Status::PlanError(
          StrCat("cannot bind attribute ", attr.ToString(), " against input"));
    }
    case ExprKind::kUnresolvedAttribute:
    case ExprKind::kStar:
      return Status::PlanError(StrCat("unresolved expression at binding: ",
                                      e->ToString()));
    default:
      break;
  }
  auto children = e->children();
  bool changed = false;
  for (auto& c : children) {
    SL_ASSIGN_OR_RETURN(ExprPtr bound, BindExpression(c, input));
    if (bound != c) {
      c = bound;
      changed = true;
    }
  }
  return changed ? e->WithNewChildren(std::move(children)) : e;
}

namespace {

template <typename RowT>
Result<Value> EvalRow(const Expression& e, const RowT& row);

template <typename RowT>
Result<Value> EvalBinary(const BinaryExpr& e, const RowT& row) {
  const BinaryOp op = e.op();
  if (IsLogicalOp(op)) {
    SL_ASSIGN_OR_RETURN(Value l, EvalRow(*e.left(), row));
    if (op == BinaryOp::kAnd) {
      if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
      SL_ASSIGN_OR_RETURN(Value r, EvalRow(*e.right(), row));
      if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
      if (l.is_null() || r.is_null()) return Value::Null(DataType::Bool());
      return Value::Bool(true);
    }
    // OR
    if (!l.is_null() && l.bool_value()) return Value::Bool(true);
    SL_ASSIGN_OR_RETURN(Value r, EvalRow(*e.right(), row));
    if (!r.is_null() && r.bool_value()) return Value::Bool(true);
    if (l.is_null() || r.is_null()) return Value::Null(DataType::Bool());
    return Value::Bool(false);
  }

  SL_ASSIGN_OR_RETURN(Value l, EvalRow(*e.left(), row));
  SL_ASSIGN_OR_RETURN(Value r, EvalRow(*e.right(), row));

  if (IsComparisonOp(op)) {
    if (l.is_null() || r.is_null()) return Value::Null(DataType::Bool());
    if (!TypesComparable(l.type(), r.type())) {
      return Status::ExecutionError(
          StrCat("incomparable types in ", e.ToString()));
    }
    int cmp = CompareValues(l, r);
    switch (op) {
      case BinaryOp::kEq:
        return Value::Bool(cmp == 0);
      case BinaryOp::kNeq:
        return Value::Bool(cmp != 0);
      case BinaryOp::kLt:
        return Value::Bool(cmp < 0);
      case BinaryOp::kLe:
        return Value::Bool(cmp <= 0);
      case BinaryOp::kGt:
        return Value::Bool(cmp > 0);
      case BinaryOp::kGe:
        return Value::Bool(cmp >= 0);
      default:
        break;
    }
  }

  // Arithmetic.
  DataType out_type = e.type();
  if (l.is_null() || r.is_null()) return Value::Null(out_type);
  if (!l.type().is_numeric() || !r.type().is_numeric()) {
    return Status::ExecutionError(
        StrCat("arithmetic on non-numeric operands in ", e.ToString()));
  }
  const bool both_int = l.type() == DataType::Int64() &&
                        r.type() == DataType::Int64() && op != BinaryOp::kDiv;
  // BIGINT + - * follow Spark's non-ANSI (Java long) semantics: results wrap
  // in two's complement instead of overflowing, which is undefined in C++.
  int64_t wrapped = 0;
  switch (op) {
    case BinaryOp::kAdd:
      if (!both_int) return Value::Double(l.ToDouble() + r.ToDouble());
      __builtin_add_overflow(l.int64_value(), r.int64_value(), &wrapped);
      return Value::Int64(wrapped);
    case BinaryOp::kSub:
      if (!both_int) return Value::Double(l.ToDouble() - r.ToDouble());
      __builtin_sub_overflow(l.int64_value(), r.int64_value(), &wrapped);
      return Value::Int64(wrapped);
    case BinaryOp::kMul:
      if (!both_int) return Value::Double(l.ToDouble() * r.ToDouble());
      __builtin_mul_overflow(l.int64_value(), r.int64_value(), &wrapped);
      return Value::Int64(wrapped);
    case BinaryOp::kDiv: {
      double rv = r.ToDouble();
      if (rv == 0.0) return Value::Null(DataType::Double());
      return Value::Double(l.ToDouble() / rv);
    }
    case BinaryOp::kMod: {
      if (l.type() == DataType::Int64() && r.type() == DataType::Int64()) {
        if (r.int64_value() == 0) return Value::Null(DataType::Int64());
        // x % -1 is 0 for every x; computing INT64_MIN % -1 traps on x86.
        if (r.int64_value() == -1) return Value::Int64(0);
        return Value::Int64(l.int64_value() % r.int64_value());
      }
      double rv = r.ToDouble();
      if (rv == 0.0) return Value::Null(DataType::Double());
      return Value::Double(std::fmod(l.ToDouble(), rv));
    }
    default:
      break;
  }
  return Status::Internal(StrCat("unhandled binary op in ", e.ToString()));
}

template <typename RowT>
Result<Value> EvalFunction(const FunctionCall& e, const RowT& row) {
  if (!e.fn().has_value()) {
    return Status::ExecutionError(StrCat("unresolved function ", e.name()));
  }
  std::vector<Value> args;
  args.reserve(e.args().size());
  for (const auto& a : e.args()) {
    SL_ASSIGN_OR_RETURN(Value v, EvalRow(*a, row));
    args.push_back(std::move(v));
  }
  const DataType out = e.type();
  switch (*e.fn()) {
    case BuiltinFn::kIfNull:
    case BuiltinFn::kCoalesce: {
      for (const auto& v : args) {
        if (!v.is_null()) return v.CastTo(out);
      }
      return Value::Null(out);
    }
    case BuiltinFn::kAbs: {
      if (args[0].is_null()) return Value::Null(out);
      if (args[0].type() == DataType::Int64()) {
        return Value::Int64(std::llabs(args[0].int64_value()));
      }
      return Value::Double(std::fabs(args[0].ToDouble()));
    }
    case BuiltinFn::kLeast:
    case BuiltinFn::kGreatest: {
      // Spark semantics: nulls are skipped; null only if all args are null.
      const bool greatest = *e.fn() == BuiltinFn::kGreatest;
      Value best = Value::Null(out);
      for (const auto& v : args) {
        if (v.is_null()) continue;
        if (best.is_null()) {
          best = v;
          continue;
        }
        int cmp = CompareValues(v, best);
        if ((greatest && cmp > 0) || (!greatest && cmp < 0)) best = v;
      }
      if (best.is_null()) return best;
      return best.CastTo(out);
    }
    case BuiltinFn::kRound: {
      if (args[0].is_null()) return Value::Null(DataType::Double());
      double digits = args.size() > 1 && !args[1].is_null()
                          ? args[1].ToDouble()
                          : 0.0;
      double scale = std::pow(10.0, digits);
      return Value::Double(std::round(args[0].ToDouble() * scale) / scale);
    }
  }
  return Status::Internal(StrCat("unhandled function ", e.name()));
}

template <typename RowT>
Result<Value> EvalRow(const Expression& e, const RowT& row) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const Literal&>(e).value();
    case ExprKind::kBoundReference: {
      const auto& ref = static_cast<const BoundReference&>(e);
      if (ref.ordinal() >= row.size()) {
        return Status::Internal(
            StrCat("bound ordinal ", ref.ordinal(), " out of range (row has ",
                   row.size(), " columns)"));
      }
      return row[ref.ordinal()];
    }
    case ExprKind::kAlias:
      return EvalRow(*static_cast<const Alias&>(e).child(), row);
    case ExprKind::kCast: {
      const auto& cast = static_cast<const Cast&>(e);
      SL_ASSIGN_OR_RETURN(Value v, EvalRow(*cast.child(), row));
      return v.CastTo(cast.type());
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      SL_ASSIGN_OR_RETURN(Value v, EvalRow(*u.child(), row));
      switch (u.op()) {
        case UnaryOp::kNot:
          if (v.is_null()) return Value::Null(DataType::Bool());
          return Value::Bool(!v.bool_value());
        case UnaryOp::kNegate:
          if (v.is_null()) return v;
          if (v.type() == DataType::Int64()) {
            // Wraps like Java: -INT64_MIN == INT64_MIN.
            int64_t negated = 0;
            __builtin_sub_overflow(int64_t{0}, v.int64_value(), &negated);
            return Value::Int64(negated);
          }
          return Value::Double(-v.ToDouble());
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
      }
      break;
    }
    case ExprKind::kBinary:
      return EvalBinary(static_cast<const BinaryExpr&>(e), row);
    case ExprKind::kFunctionCall:
      return EvalFunction(static_cast<const FunctionCall&>(e), row);
    case ExprKind::kSkylineDimension:
      return EvalRow(*static_cast<const SkylineDimension&>(e).child(), row);
    default:
      break;
  }
  return Status::Internal(
      StrCat("expression not evaluable row-at-a-time: ", e.ToString()));
}

template <typename RowT>
Result<bool> PredicateOn(const Expression& e, const RowT& row) {
  SL_ASSIGN_OR_RETURN(Value v, EvalRow(e, row));
  if (v.is_null()) return false;
  if (v.type() != DataType::Bool()) {
    return Status::ExecutionError(
        StrCat("predicate is not boolean: ", e.ToString()));
  }
  return v.bool_value();
}

}  // namespace

Result<Value> EvalExpr(const Expression& e, const Row& row) {
  return EvalRow(e, row);
}

Result<Value> EvalExpr(const Expression& e, const RowRef& row) {
  return EvalRow(e, row);
}

Result<bool> EvalPredicate(const Expression& e, const Row& row) {
  return PredicateOn(e, row);
}

Result<bool> EvalPredicate(const Expression& e, const RowRef& row) {
  return PredicateOn(e, row);
}

bool IsConstantExpr(const ExprPtr& e) {
  switch (e->kind()) {
    case ExprKind::kAttributeRef:
    case ExprKind::kBoundReference:
    case ExprKind::kUnresolvedAttribute:
    case ExprKind::kStar:
    case ExprKind::kAggregate:
    case ExprKind::kExistsSubquery:
    case ExprKind::kScalarSubquery:
    case ExprKind::kOuterRef:
      return false;
    default:
      break;
  }
  for (const auto& c : e->children()) {
    if (!IsConstantExpr(c)) return false;
  }
  return true;
}

Result<Value> EvalConstant(const ExprPtr& e) {
  Row empty;
  return EvalExpr(*e, empty);
}

}  // namespace sparkline
