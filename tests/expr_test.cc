// Tests for expression construction, evaluation semantics (SQL three-valued
// logic, null propagation) and physical binding.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "expr/evaluator.h"
#include "expr/expression.h"

namespace sparkline {
namespace {

ExprPtr I(int64_t v) { return Literal::Make(Value::Int64(v)); }
ExprPtr D(double v) { return Literal::Make(Value::Double(v)); }
ExprPtr B(bool v) { return Literal::Make(Value::Bool(v)); }
ExprPtr NullLit(DataType t = DataType::Int64()) {
  return Literal::Make(Value::Null(t));
}
ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  return BinaryExpr::Make(op, std::move(l), std::move(r));
}

Value Eval(const ExprPtr& e) {
  Row empty;
  auto r = EvalExpr(*e, empty);
  SL_CHECK(r.ok()) << r.status().ToString();
  return *r;
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval(Bin(BinaryOp::kAdd, I(2), I(3))).int64_value(), 5);
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, I(2), I(5))).int64_value(), -3);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, I(4), I(6))).int64_value(), 24);
  EXPECT_DOUBLE_EQ(Eval(Bin(BinaryOp::kDiv, I(7), I(2))).double_value(), 3.5);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, I(7), I(4))).int64_value(), 3);
}

TEST(ExprEvalTest, MixedNumericWidens) {
  Value v = Eval(Bin(BinaryOp::kAdd, I(2), D(0.5)));
  EXPECT_EQ(v.type(), DataType::Double());
  EXPECT_DOUBLE_EQ(v.double_value(), 2.5);
}

TEST(ExprEvalTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(Eval(Bin(BinaryOp::kDiv, I(1), I(0))).is_null());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kMod, I(1), I(0))).is_null());
}

TEST(ExprEvalTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Eval(Bin(BinaryOp::kAdd, I(1), NullLit())).is_null());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kLt, NullLit(), I(1))).is_null());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(Eval(Bin(BinaryOp::kLt, I(1), I(2))).bool_value());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kGe, D(2.0), I(2))).bool_value());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kNeq, I(1), I(2))).bool_value());
  EXPECT_FALSE(Eval(Bin(BinaryOp::kEq, I(1), I(2))).bool_value());
}

TEST(ExprEvalTest, ThreeValuedAnd) {
  // false AND NULL = false; true AND NULL = NULL.
  EXPECT_FALSE(
      Eval(Bin(BinaryOp::kAnd, B(false), NullLit(DataType::Bool()))).bool_value());
  EXPECT_TRUE(
      Eval(Bin(BinaryOp::kAnd, B(true), NullLit(DataType::Bool()))).is_null());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kAnd, B(true), B(true))).bool_value());
}

TEST(ExprEvalTest, ThreeValuedOr) {
  // true OR NULL = true; false OR NULL = NULL.
  EXPECT_TRUE(
      Eval(Bin(BinaryOp::kOr, B(true), NullLit(DataType::Bool()))).bool_value());
  EXPECT_TRUE(
      Eval(Bin(BinaryOp::kOr, B(false), NullLit(DataType::Bool()))).is_null());
}

TEST(ExprEvalTest, NotAndIsNull) {
  EXPECT_FALSE(Eval(UnaryExpr::Make(UnaryOp::kNot, B(true))).bool_value());
  EXPECT_TRUE(Eval(UnaryExpr::Make(UnaryOp::kNot, NullLit(DataType::Bool())))
                  .is_null());
  EXPECT_TRUE(Eval(UnaryExpr::Make(UnaryOp::kIsNull, NullLit())).bool_value());
  EXPECT_TRUE(
      Eval(UnaryExpr::Make(UnaryOp::kIsNotNull, I(1))).bool_value());
}

TEST(ExprEvalTest, Negate) {
  EXPECT_EQ(Eval(UnaryExpr::Make(UnaryOp::kNegate, I(5))).int64_value(), -5);
  EXPECT_DOUBLE_EQ(
      Eval(UnaryExpr::Make(UnaryOp::kNegate, D(2.5))).double_value(), -2.5);
}

// BIGINT arithmetic follows Spark's non-ANSI (Java long) semantics: it wraps
// in two's complement, and x % -1 is 0 even for INT64_MIN. The sanitizer CI
// job runs this suite, so any signed overflow left behind is a failure.
TEST(ExprEvalTest, BigintOverflowWrapsLikeJavaLong) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Eval(Bin(BinaryOp::kAdd, I(kMax), I(1))).int64_value(), kMin);
  EXPECT_EQ(Eval(Bin(BinaryOp::kAdd, I(kMin), I(-1))).int64_value(), kMax);
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, I(kMin), I(1))).int64_value(), kMax);
  EXPECT_EQ(Eval(Bin(BinaryOp::kSub, I(kMax), I(-1))).int64_value(), kMin);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, I(kMax), I(2))).int64_value(), -2);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, I(kMin), I(-1))).int64_value(), kMin);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, I(int64_t{1} << 32), I(int64_t{1} << 32)))
                .int64_value(),
            0);
  EXPECT_EQ(Eval(UnaryExpr::Make(UnaryOp::kNegate, I(kMin))).int64_value(),
            kMin);
  // Results that do not overflow are unchanged.
  EXPECT_EQ(Eval(Bin(BinaryOp::kMul, I(-3), I(7))).int64_value(), -21);
}

TEST(ExprEvalTest, BigintModuloByMinusOneIsZero) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, I(kMin), I(-1))).int64_value(), 0);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, I(7), I(-1))).int64_value(), 0);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, I(-7), I(3))).int64_value(), -1);
  EXPECT_EQ(Eval(Bin(BinaryOp::kMod, I(kMin), I(kMin))).int64_value(), 0);
}

// DOUBLE comparisons use Spark's total order: NaN = NaN, NaN above +inf,
// -0.0 = 0.0.
TEST(ExprEvalTest, NaNComparesAsLargestAndEqualToItself) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(Eval(Bin(BinaryOp::kEq, D(nan), D(nan))).bool_value());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kGt, D(nan), D(inf))).bool_value());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kLt, D(-inf), D(nan))).bool_value());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kGt, D(nan), I(5))).bool_value());
  EXPECT_TRUE(Eval(Bin(BinaryOp::kEq, D(-0.0), D(0.0))).bool_value());
  EXPECT_TRUE(Value::Double(nan).Equals(Value::Double(-nan)));
  EXPECT_EQ(Value::Double(nan).Hash(), Value::Double(-nan).Hash());
}

TEST(ExprEvalTest, Cast) {
  EXPECT_DOUBLE_EQ(
      Eval(Cast::Make(I(3), DataType::Double())).double_value(), 3.0);
  EXPECT_EQ(Eval(Cast::Make(D(3.7), DataType::Int64())).int64_value(), 4);
}

ExprPtr Fn(BuiltinFn fn, const char* name, std::vector<ExprPtr> args) {
  return ExprPtr(
      std::make_shared<FunctionCall>(name, std::move(args), fn));
}

TEST(ExprEvalTest, IfNull) {
  EXPECT_EQ(
      Eval(Fn(BuiltinFn::kIfNull, "ifnull", {NullLit(), I(7)})).int64_value(),
      7);
  EXPECT_EQ(
      Eval(Fn(BuiltinFn::kIfNull, "ifnull", {I(3), I(7)})).int64_value(), 3);
}

TEST(ExprEvalTest, Coalesce) {
  EXPECT_EQ(Eval(Fn(BuiltinFn::kCoalesce, "coalesce",
                    {NullLit(), NullLit(), I(9)}))
                .int64_value(),
            9);
  EXPECT_TRUE(
      Eval(Fn(BuiltinFn::kCoalesce, "coalesce", {NullLit()})).is_null());
}

TEST(ExprEvalTest, AbsLeastGreatestRound) {
  EXPECT_EQ(Eval(Fn(BuiltinFn::kAbs, "abs", {I(-4)})).int64_value(), 4);
  EXPECT_EQ(
      Eval(Fn(BuiltinFn::kLeast, "least", {I(3), NullLit(), I(1)})).int64_value(),
      1);
  EXPECT_EQ(Eval(Fn(BuiltinFn::kGreatest, "greatest", {I(3), I(9)}))
                .int64_value(),
            9);
  EXPECT_DOUBLE_EQ(
      Eval(Fn(BuiltinFn::kRound, "round", {D(2.567), I(1)})).double_value(),
      2.6);
}

TEST(ExprBindTest, BindsById) {
  Attribute a{"x", DataType::Int64(), false, 100, ""};
  Attribute b{"y", DataType::Double(), true, 101, ""};
  ExprPtr e = Bin(BinaryOp::kAdd, a.ToRef(), b.ToRef());
  auto bound = BindExpression(e, {b, a});  // note: reversed order
  ASSERT_TRUE(bound.ok());
  Row row{Value::Double(0.5), Value::Int64(2)};
  auto v = EvalExpr(**bound, row);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 2.5);
}

TEST(ExprBindTest, UnknownIdFails) {
  Attribute a{"x", DataType::Int64(), false, 100, ""};
  auto bound = BindExpression(a.ToRef(), {});
  EXPECT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kPlanError);
}

TEST(ExprTest, ExprIdsAreUnique) {
  EXPECT_NE(NextExprId(), NextExprId());
}

TEST(ExprTest, AliasKeepsIdThroughRebuild) {
  auto alias = std::make_shared<Alias>(I(1), "one");
  ExprId id = alias->id();
  auto rebuilt = alias->WithNewChildren({I(2)});
  EXPECT_EQ(static_cast<const Alias&>(*rebuilt).id(), id);
}

TEST(ExprTest, ContainsAggregate) {
  ExprPtr agg = AggregateExpr::Make(AggFn::kSum, I(1));
  EXPECT_TRUE(Bin(BinaryOp::kAdd, agg, I(1))->ContainsAggregate());
  EXPECT_FALSE(Bin(BinaryOp::kAdd, I(1), I(1))->ContainsAggregate());
}

TEST(ExprTest, SplitAndCombineConjuncts) {
  ExprPtr e = Bin(BinaryOp::kAnd, Bin(BinaryOp::kAnd, B(true), B(false)),
                  Bin(BinaryOp::kOr, B(true), B(false)));
  auto parts = SplitConjuncts(e);
  EXPECT_EQ(parts.size(), 3u);
  ExprPtr back = CombineConjuncts(parts);
  EXPECT_EQ(back->ToString(), e->ToString());
  EXPECT_EQ(CombineConjuncts({}), nullptr);
}

TEST(ExprTest, TransformRewritesBottomUp) {
  ExprPtr e = Bin(BinaryOp::kAdd, I(1), Bin(BinaryOp::kAdd, I(2), I(3)));
  int literals = 0;
  ExprPtr out = Expression::Transform(e, [&](const ExprPtr& n) -> ExprPtr {
    if (n->kind() == ExprKind::kLiteral) {
      ++literals;
      return I(static_cast<const Literal&>(*n).value().int64_value() * 10);
    }
    return n;
  });
  EXPECT_EQ(literals, 3);
  Row empty;
  EXPECT_EQ(EvalExpr(*out, empty)->int64_value(), 60);
}

TEST(ExprTest, IsConstantExpr) {
  EXPECT_TRUE(IsConstantExpr(Bin(BinaryOp::kAdd, I(1), I(2))));
  Attribute a{"x", DataType::Int64(), false, 55, ""};
  EXPECT_FALSE(IsConstantExpr(Bin(BinaryOp::kAdd, I(1), a.ToRef())));
  EXPECT_FALSE(IsConstantExpr(AggregateExpr::Make(AggFn::kSum, I(1))));
}

TEST(ExprTest, SkylineDimensionToString) {
  Attribute a{"price", DataType::Double(), false, 9, ""};
  EXPECT_EQ(SkylineDimension::Make(a.ToRef(), SkylineGoal::kMin)->ToString(),
            "price#9 MIN");
  EXPECT_EQ(SkylineDimension::Make(a.ToRef(), SkylineGoal::kDiff)->ToString(),
            "price#9 DIFF");
}

TEST(ExprTest, NullabilityRules) {
  Attribute nn{"x", DataType::Int64(), false, 1, ""};
  Attribute yn{"y", DataType::Int64(), true, 2, ""};
  EXPECT_FALSE(Bin(BinaryOp::kAdd, nn.ToRef(), nn.ToRef())->nullable());
  EXPECT_TRUE(Bin(BinaryOp::kAdd, nn.ToRef(), yn.ToRef())->nullable());
  // ifnull(nullable, non-nullable) is non-nullable.
  EXPECT_FALSE(
      Fn(BuiltinFn::kIfNull, "ifnull", {yn.ToRef(), I(0)})->nullable());
  EXPECT_FALSE(UnaryExpr::Make(UnaryOp::kIsNull, yn.ToRef())->nullable());
}

TEST(ExprEvalTest, PredicateRequiresBoolean) {
  Row empty;
  EXPECT_FALSE(EvalPredicate(*I(1), empty).ok());
  auto null_pred = EvalPredicate(*NullLit(DataType::Bool()), empty);
  ASSERT_TRUE(null_pred.ok());
  EXPECT_FALSE(*null_pred);  // NULL is not TRUE
}

}  // namespace
}  // namespace sparkline
