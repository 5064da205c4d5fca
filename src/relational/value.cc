#include "relational/value.h"

#include <cmath>
#include <functional>

#include "base/check.h"

namespace gsopt {

std::optional<int> Value::Compare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  if (a.IsNumeric() && b.IsNumeric()) {
    bool ai = a.type() == ValueType::kInt, bi = b.type() == ValueType::kInt;
    if (ai && bi) {
      int64_t x = a.AsInt(), y = b.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    if (ai) return CompareIntDouble(a.AsInt(), b.AsDouble());
    if (bi) return -CompareIntDouble(b.AsInt(), a.AsDouble());
    return CompareDoubles(a.AsDouble(), b.AsDouble());
  }
  if (a.type() == ValueType::kString && b.type() == ValueType::kString) {
    int c = a.AsString().compare(b.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return std::nullopt;  // incomparable types behave like UNKNOWN
}

bool Value::IdentityEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.IsNumeric() != b.IsNumeric()) return false;
  auto c = Compare(a, b);
  return c.has_value() && *c == 0;
}

bool Value::IdentityLess(const Value& a, const Value& b) {
  // Order: NULL < numerics < strings; numerics by value, strings lexical.
  auto rank = [](const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // NULL == NULL
  auto c = Compare(a, b);
  GSOPT_DCHECK(c.has_value());
  return *c < 0;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kInt:
      return std::hash<int64_t>()(AsInt());
    case ValueType::kDouble: {
      // A double equal to an int64 hashes as that int, so 1 and 1.0
      // collide, matching IdentityEquals. ExactInt64 guards the int64 cast
      // (casting NaN or a magnitude past 2^63 is UB).
      double d = AsDouble();
      int64_t i = 0;
      if (ExactInt64(d, &i)) return std::hash<int64_t>()(i);
      if (std::isnan(d)) return 0x7FF8DEADu;  // one class for every NaN
      return std::hash<double>()(d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return std::to_string(AsDouble());
    case ValueType::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

Tri EvalCmpGeneral(CmpOp op, const Value& a, const Value& b) {
  std::optional<int> c = Value::Compare(a, b);
  if (!c.has_value()) return Tri::kUnknown;
  return CmpHolds(op, *c) ? Tri::kTrue : Tri::kFalse;
}

std::string CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

Value EvalArith(ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.IsNumeric() || !b.IsNumeric()) return Value::Null();
  bool both_int = a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  if (both_int && op != ArithOp::kDiv) {
    // An int64 result that overflows falls through to the double result,
    // the path mixed int/double operands take.
    int64_t x = a.AsInt(), y = b.AsInt(), r = 0;
    bool overflow = false;
    switch (op) {
      case ArithOp::kAdd:
        overflow = __builtin_add_overflow(x, y, &r);
        break;
      case ArithOp::kSub:
        overflow = __builtin_sub_overflow(x, y, &r);
        break;
      case ArithOp::kMul:
        overflow = __builtin_mul_overflow(x, y, &r);
        break;
      default:
        break;
    }
    if (!overflow) return Value::Int(r);
  }
  double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case ArithOp::kAdd:
      return Value::Double(x + y);
    case ArithOp::kSub:
      return Value::Double(x - y);
    case ArithOp::kMul:
      return Value::Double(x * y);
    case ArithOp::kDiv:
      if (y == 0.0) return Value::Null();
      return Value::Double(x / y);
  }
  return Value::Null();
}

std::string ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

}  // namespace gsopt
