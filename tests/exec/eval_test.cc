// Unit tests for the expression evaluator: arithmetic typing, Kleene
// three-valued logic, date arithmetic, and error paths.

#include "exec/eval.h"

#include <gtest/gtest.h>

#include <limits>

namespace conquer {
namespace {

ExprPtr Lit(Value v) { return Expr::MakeLiteral(std::move(v)); }

Value Eval(ExprPtr e) {
  static const Row kEmpty;
  auto v = EvalExpr(*e, kEmpty);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : Value::Null();
}

TEST(EvalTest, IntegerArithmeticStaysIntegral) {
  Value v = Eval(Expr::MakeBinary(BinaryOp::kAdd, Lit(Value::Int(2)),
                                  Lit(Value::Int(3))));
  EXPECT_EQ(v.type(), DataType::kInt64);
  EXPECT_EQ(v.int_value(), 5);
  v = Eval(Expr::MakeBinary(BinaryOp::kMul, Lit(Value::Int(4)),
                            Lit(Value::Int(-6))));
  EXPECT_EQ(v.int_value(), -24);
}

TEST(EvalTest, MixedArithmeticWidensToDouble) {
  Value v = Eval(Expr::MakeBinary(BinaryOp::kMul, Lit(Value::Int(2)),
                                  Lit(Value::Double(1.5))));
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 3.0);
}

TEST(EvalTest, DivisionAlwaysDouble) {
  Value v = Eval(Expr::MakeBinary(BinaryOp::kDiv, Lit(Value::Int(7)),
                                  Lit(Value::Int(2))));
  EXPECT_EQ(v.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 3.5);
}

TEST(EvalTest, DivisionByZeroYieldsNull) {
  Value v = Eval(Expr::MakeBinary(BinaryOp::kDiv, Lit(Value::Int(7)),
                                  Lit(Value::Int(0))));
  EXPECT_TRUE(v.is_null());
}

TEST(EvalTest, DateArithmetic) {
  auto day = ParseDate("1995-03-15");
  ASSERT_TRUE(day.ok());
  Value plus = Eval(Expr::MakeBinary(BinaryOp::kAdd, Lit(Value::Date(*day)),
                                     Lit(Value::Int(10))));
  EXPECT_EQ(plus.type(), DataType::kDate);
  EXPECT_EQ(plus.ToString(), "1995-03-25");
  Value diff = Eval(Expr::MakeBinary(BinaryOp::kSub, Lit(Value::Date(*day)),
                                     Lit(Value::Date(*day - 40))));
  EXPECT_EQ(diff.type(), DataType::kInt64);
  EXPECT_EQ(diff.int_value(), 40);
}

TEST(EvalTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Eval(Expr::MakeBinary(BinaryOp::kAdd, Lit(Value::Null()),
                                    Lit(Value::Int(1))))
                  .is_null());
  EXPECT_TRUE(Eval(Expr::MakeBinary(BinaryOp::kLt, Lit(Value::Null()),
                                    Lit(Value::Int(1))))
                  .is_null());
}

TEST(EvalTest, KleeneAnd) {
  auto and_of = [&](Value a, Value b) {
    return Eval(Expr::MakeBinary(BinaryOp::kAnd, Lit(a), Lit(b)));
  };
  // FALSE AND NULL = FALSE (short circuit), NULL AND TRUE = NULL.
  EXPECT_FALSE(and_of(Value::Bool(false), Value::Null()).bool_value());
  EXPECT_FALSE(and_of(Value::Null(), Value::Bool(false)).bool_value());
  EXPECT_TRUE(and_of(Value::Null(), Value::Bool(true)).is_null());
  EXPECT_TRUE(and_of(Value::Null(), Value::Null()).is_null());
  EXPECT_TRUE(and_of(Value::Bool(true), Value::Bool(true)).bool_value());
}

TEST(EvalTest, KleeneOr) {
  auto or_of = [&](Value a, Value b) {
    return Eval(Expr::MakeBinary(BinaryOp::kOr, Lit(a), Lit(b)));
  };
  // TRUE OR NULL = TRUE, NULL OR FALSE = NULL.
  EXPECT_TRUE(or_of(Value::Bool(true), Value::Null()).bool_value());
  EXPECT_TRUE(or_of(Value::Null(), Value::Bool(true)).bool_value());
  EXPECT_TRUE(or_of(Value::Null(), Value::Bool(false)).is_null());
  EXPECT_FALSE(or_of(Value::Bool(false), Value::Bool(false)).bool_value());
}

TEST(EvalTest, NotOfNullIsNull) {
  EXPECT_TRUE(Eval(Expr::MakeUnary(UnaryOp::kNot, Lit(Value::Null())))
                  .is_null());
  EXPECT_FALSE(Eval(Expr::MakeUnary(UnaryOp::kNot, Lit(Value::Bool(true))))
                   .bool_value());
}

TEST(EvalTest, IsNullNeverReturnsNull) {
  EXPECT_TRUE(Eval(Expr::MakeUnary(UnaryOp::kIsNull, Lit(Value::Null())))
                  .bool_value());
  EXPECT_FALSE(Eval(Expr::MakeUnary(UnaryOp::kIsNull, Lit(Value::Int(1))))
                   .bool_value());
  EXPECT_TRUE(Eval(Expr::MakeUnary(UnaryOp::kIsNotNull, Lit(Value::Int(1))))
                  .bool_value());
}

TEST(EvalTest, LikeUsesPatternSemantics) {
  Value v = Eval(Expr::MakeBinary(BinaryOp::kLike,
                                  Lit(Value::String("PROMO BRUSHED BRASS")),
                                  Lit(Value::String("%BRASS"))));
  EXPECT_TRUE(v.bool_value());
}

TEST(EvalTest, LikeOnNonStringOperandsIsTypeError) {
  // The binder rejects these in SQL, but programmatically built expressions
  // reach the evaluator directly; this used to read a string out of an
  // INT64 Value (undefined behaviour).
  static const Row kEmpty;
  ExprPtr int_scrutinee = Expr::MakeBinary(
      BinaryOp::kLike, Lit(Value::Int(123)), Lit(Value::String("1%")));
  auto v = EvalExpr(*int_scrutinee, kEmpty);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kTypeError);

  ExprPtr int_pattern = Expr::MakeBinary(
      BinaryOp::kLike, Lit(Value::String("abc")), Lit(Value::Int(7)));
  v = EvalExpr(*int_pattern, kEmpty);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kTypeError);

  // NULL operands still yield NULL (checked before the type guard).
  EXPECT_TRUE(Eval(Expr::MakeBinary(BinaryOp::kLike, Lit(Value::Null()),
                                    Lit(Value::Int(7))))
                  .is_null());
}

TEST(EvalTest, ComparisonChainOfTypes) {
  EXPECT_TRUE(Eval(Expr::MakeBinary(BinaryOp::kLe, Lit(Value::Int(3)),
                                    Lit(Value::Double(3.0))))
                  .bool_value());
  EXPECT_TRUE(Eval(Expr::MakeBinary(BinaryOp::kNe, Lit(Value::String("a")),
                                    Lit(Value::String("b"))))
                  .bool_value());
}

TEST(EvalTest, UnaryNegation) {
  EXPECT_EQ(Eval(Expr::MakeUnary(UnaryOp::kNeg, Lit(Value::Int(5))))
                .int_value(),
            -5);
  EXPECT_DOUBLE_EQ(
      Eval(Expr::MakeUnary(UnaryOp::kNeg, Lit(Value::Double(2.5))))
          .double_value(),
      -2.5);
  EXPECT_TRUE(
      Eval(Expr::MakeUnary(UnaryOp::kNeg, Lit(Value::Null()))).is_null());
}

TEST(EvalTest, IntegerOverflowIsOutOfRange) {
  static const Row kEmpty;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto code = [](ExprPtr e) {
    auto v = EvalExpr(*e, kEmpty);
    return v.ok() ? StatusCode::kOk : v.status().code();
  };
  auto bin = [](BinaryOp op, Value l, Value r) {
    return Expr::MakeBinary(op, Lit(std::move(l)), Lit(std::move(r)));
  };
  EXPECT_EQ(code(bin(BinaryOp::kMul, Value::Int(kMax), Value::Int(4))),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(bin(BinaryOp::kAdd, Value::Int(kMax), Value::Int(1))),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(bin(BinaryOp::kSub, Value::Int(kMin), Value::Int(1))),
            StatusCode::kOutOfRange);
  // The error message prints the expression, near-max DATEs included.
  EXPECT_EQ(code(bin(BinaryOp::kAdd, Value::Date(kMax), Value::Int(1))),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(bin(BinaryOp::kSub, Value::Date(kMin), Value::Int(1))),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(bin(BinaryOp::kSub, Value::Date(-2), Value::Int(kMax))),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(bin(BinaryOp::kSub, Value::Date(kMax), Value::Date(-1))),
            StatusCode::kOutOfRange);
  EXPECT_EQ(code(Expr::MakeUnary(UnaryOp::kNeg, Lit(Value::Int(kMin)))),
            StatusCode::kOutOfRange);
  // The largest results that fit still compute.
  EXPECT_EQ(Eval(bin(BinaryOp::kAdd, Value::Int(kMax - 1), Value::Int(1)))
                .int_value(),
            kMax);
  EXPECT_EQ(Eval(Expr::MakeUnary(UnaryOp::kNeg, Lit(Value::Int(kMax))))
                .int_value(),
            -kMax);
}

TEST(EvalTest, PredicateTreatsNullAsNotPassed) {
  static const Row kEmpty;
  ExprPtr null_pred = Expr::MakeBinary(BinaryOp::kEq, Lit(Value::Null()),
                                       Lit(Value::Int(1)));
  auto pass = EvalPredicate(*null_pred, kEmpty);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);
}

TEST(EvalTest, AggregateInRowEvaluatorIsInternalError) {
  static const Row kEmpty;
  ExprPtr agg = Expr::MakeAggregate(AggFunc::kSum, Lit(Value::Int(1)));
  auto v = EvalExpr(*agg, kEmpty);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace conquer
