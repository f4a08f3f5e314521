#include "exec/eval.h"

#include <cassert>

#include "common/str_util.h"

namespace conquer {

namespace {

Status IntegerOverflow(const Expr& e) {
  return Status::OutOfRange("integer overflow in '" + e.ToString() + "'");
}

Result<Value> EvalBinary(const Expr& e, const Row& row) {
  // Kleene AND/OR need operand-aware NULL handling and short circuits.
  if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
    CONQUER_ASSIGN_OR_RETURN(Value l, EvalExpr(*e.left, row));
    bool is_and = e.bop == BinaryOp::kAnd;
    if (!l.is_null()) {
      if (is_and && !l.bool_value()) return Value::Bool(false);
      if (!is_and && l.bool_value()) return Value::Bool(true);
    }
    CONQUER_ASSIGN_OR_RETURN(Value r, EvalExpr(*e.right, row));
    if (!r.is_null()) {
      if (is_and && !r.bool_value()) return Value::Bool(false);
      if (!is_and && r.bool_value()) return Value::Bool(true);
    }
    if (l.is_null() || r.is_null()) return Value::Null();
    return Value::Bool(is_and);  // AND: both true; OR: both false -> false
  }

  CONQUER_ASSIGN_OR_RETURN(Value l, EvalExpr(*e.left, row));
  CONQUER_ASSIGN_OR_RETURN(Value r, EvalExpr(*e.right, row));
  if (l.is_null() || r.is_null()) return Value::Null();

  switch (e.bop) {
    case BinaryOp::kEq:
      return Value::Bool(l.Compare(r) == 0);
    case BinaryOp::kNe:
      return Value::Bool(l.Compare(r) != 0);
    case BinaryOp::kLt:
      return Value::Bool(l.Compare(r) < 0);
    case BinaryOp::kLe:
      return Value::Bool(l.Compare(r) <= 0);
    case BinaryOp::kGt:
      return Value::Bool(l.Compare(r) > 0);
    case BinaryOp::kGe:
      return Value::Bool(l.Compare(r) >= 0);
    case BinaryOp::kLike:
      // The binder rejects non-string LIKE in SQL, but expressions built
      // programmatically bypass it; without this check string_value() on an
      // INT/DATE operand is undefined behaviour.
      if (l.type() != DataType::kString || r.type() != DataType::kString) {
        return Status::TypeError(
            std::string("LIKE requires string operands, got ") +
            DataTypeToString(l.type()) + " and " + DataTypeToString(r.type()));
      }
      return Value::Bool(LikeMatch(l.string_value(), r.string_value()));
    case BinaryOp::kAdd:
    case BinaryOp::kSub: {
      // Integer results (DATE ± INT64 -> DATE, DATE - DATE and INT64 ±
      // INT64 -> INT64; a DATE holds its days as the int64) fail on
      // overflow instead of wrapping.
      const bool add = e.bop == BinaryOp::kAdd;
      const bool date_shift =
          l.type() == DataType::kDate && r.type() == DataType::kInt64;
      const bool int_result =
          (!add && l.type() == DataType::kDate &&
           r.type() == DataType::kDate) ||
          (l.type() == DataType::kInt64 && r.type() == DataType::kInt64);
      if (date_shift || int_result) {
        int64_t v = 0;
        if (add ? __builtin_add_overflow(l.int_value(), r.int_value(), &v)
                : __builtin_sub_overflow(l.int_value(), r.int_value(), &v)) {
          return IntegerOverflow(e);
        }
        return date_shift ? Value::Date(v) : Value::Int(v);
      }
      double v = add ? l.AsDouble() + r.AsDouble()
                     : l.AsDouble() - r.AsDouble();
      return Value::Double(v);
    }
    case BinaryOp::kMul:
      if (l.type() == DataType::kInt64 && r.type() == DataType::kInt64) {
        int64_t v = 0;
        if (__builtin_mul_overflow(l.int_value(), r.int_value(), &v)) {
          return IntegerOverflow(e);
        }
        return Value::Int(v);
      }
      return Value::Double(l.AsDouble() * r.AsDouble());
    case BinaryOp::kDiv: {
      double denom = r.AsDouble();
      if (denom == 0.0) return Value::Null();  // SQL raises; we yield NULL
      return Value::Double(l.AsDouble() / denom);
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr:
      break;  // handled above
  }
  return Status::Internal("unhandled binary op in eval");
}

}  // namespace

Result<Value> EvalExpr(const Expr& e, const Row& row) {
  switch (e.kind) {
    case Expr::Kind::kColumnRef:
      assert(e.slot >= 0 && static_cast<size_t>(e.slot) < row.size());
      return row[e.slot];
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kBinary:
      return EvalBinary(e, row);
    case Expr::Kind::kUnary: {
      CONQUER_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.left, row));
      switch (e.uop) {
        case UnaryOp::kNot:
          if (v.is_null()) return Value::Null();
          return Value::Bool(!v.bool_value());
        case UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.type() == DataType::kInt64) {
            int64_t negated = 0;
            if (__builtin_sub_overflow(int64_t{0}, v.int_value(), &negated)) {
              return IntegerOverflow(e);
            }
            return Value::Int(negated);
          }
          return Value::Double(-v.AsDouble());
        case UnaryOp::kIsNull:
          return Value::Bool(v.is_null());
        case UnaryOp::kIsNotNull:
          return Value::Bool(!v.is_null());
      }
      return Status::Internal("unhandled unary op in eval");
    }
    case Expr::Kind::kAggregate:
      return Status::Internal(
          "aggregate reached the row-level evaluator: '" + e.ToString() + "'");
    case Expr::Kind::kParameter:
      return Status::InvalidArgument(
          "unbound parameter '?': bind values via a prepared statement");
  }
  return Status::Internal("unhandled expression kind in eval");
}

Result<bool> EvalPredicate(const Expr& e, const Row& row) {
  CONQUER_ASSIGN_OR_RETURN(Value v, EvalExpr(e, row));
  if (v.is_null()) return false;
  return v.bool_value();
}

}  // namespace conquer
