#include "relational/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

namespace gsopt {
namespace {

TEST(ValueTest, NullProperties) {
  Value n = Value::Null();
  EXPECT_TRUE(n.is_null());
  EXPECT_EQ(n.type(), ValueType::kNull);
  EXPECT_FALSE(Value::Int(3).is_null());
}

TEST(ValueTest, CompareNumerics) {
  EXPECT_EQ(Value::Compare(Value::Int(1), Value::Int(2)).value(), -1);
  EXPECT_EQ(Value::Compare(Value::Int(2), Value::Int(2)).value(), 0);
  EXPECT_EQ(Value::Compare(Value::Int(3), Value::Int(2)).value(), 1);
  // Int/double coercion.
  EXPECT_EQ(Value::Compare(Value::Int(2), Value::Double(2.0)).value(), 0);
  EXPECT_EQ(Value::Compare(Value::Double(1.5), Value::Int(2)).value(), -1);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_EQ(Value::Compare(Value::String("a"), Value::String("b")).value(),
            -1);
  EXPECT_EQ(Value::Compare(Value::String("b"), Value::String("b")).value(), 0);
}

TEST(ValueTest, CompareWithNullIsUnknown) {
  EXPECT_FALSE(Value::Compare(Value::Null(), Value::Int(1)).has_value());
  EXPECT_FALSE(Value::Compare(Value::Int(1), Value::Null()).has_value());
  EXPECT_FALSE(Value::Compare(Value::Null(), Value::Null()).has_value());
}

TEST(ValueTest, MixedTypesIncomparable) {
  EXPECT_FALSE(
      Value::Compare(Value::Int(1), Value::String("1")).has_value());
}

TEST(ValueTest, IdentityEqualsTreatsNullEqual) {
  EXPECT_TRUE(Value::IdentityEquals(Value::Null(), Value::Null()));
  EXPECT_FALSE(Value::IdentityEquals(Value::Null(), Value::Int(0)));
  EXPECT_TRUE(Value::IdentityEquals(Value::Int(1), Value::Double(1.0)));
  EXPECT_FALSE(Value::IdentityEquals(Value::Int(1), Value::Int(2)));
}

TEST(ValueTest, IdentityLessTotalOrder) {
  EXPECT_TRUE(Value::IdentityLess(Value::Null(), Value::Int(-100)));
  EXPECT_FALSE(Value::IdentityLess(Value::Null(), Value::Null()));
  EXPECT_TRUE(Value::IdentityLess(Value::Int(5), Value::String("")));
  EXPECT_TRUE(Value::IdentityLess(Value::Int(1), Value::Int(2)));
}

TEST(ValueTest, HashConsistentWithIdentityEquals) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(TriTest, ThreeValuedConnectives) {
  EXPECT_EQ(TriAnd(Tri::kTrue, Tri::kUnknown), Tri::kUnknown);
  EXPECT_EQ(TriAnd(Tri::kFalse, Tri::kUnknown), Tri::kFalse);
  EXPECT_EQ(TriOr(Tri::kFalse, Tri::kUnknown), Tri::kUnknown);
  EXPECT_EQ(TriOr(Tri::kTrue, Tri::kUnknown), Tri::kTrue);
  EXPECT_EQ(TriNot(Tri::kUnknown), Tri::kUnknown);
  EXPECT_EQ(TriNot(Tri::kTrue), Tri::kFalse);
}

TEST(EvalCmpTest, NullIntolerance) {
  // Footnote 2 of the paper: comparison atoms are null in-tolerant.
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    EXPECT_EQ(EvalCmp(op, Value::Null(), Value::Int(1)), Tri::kUnknown);
    EXPECT_EQ(EvalCmp(op, Value::Int(1), Value::Null()), Tri::kUnknown);
  }
}

TEST(EvalCmpTest, AllOperators) {
  Value a = Value::Int(1), b = Value::Int(2);
  EXPECT_EQ(EvalCmp(CmpOp::kEq, a, b), Tri::kFalse);
  EXPECT_EQ(EvalCmp(CmpOp::kNe, a, b), Tri::kTrue);
  EXPECT_EQ(EvalCmp(CmpOp::kLt, a, b), Tri::kTrue);
  EXPECT_EQ(EvalCmp(CmpOp::kLe, a, a), Tri::kTrue);
  EXPECT_EQ(EvalCmp(CmpOp::kGt, b, a), Tri::kTrue);
  EXPECT_EQ(EvalCmp(CmpOp::kGe, a, b), Tri::kFalse);
  // Every operator on int/int pairs at the ends of the int64 range, where
  // a subtraction-based three-way compare would overflow.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::pair<int64_t, int64_t> pairs[] = {
      {kMin, kMax}, {kMax, kMin}, {kMin, kMin}, {kMax, kMax},
      {kMin, 0},    {0, kMax},    {-1, kMin},   {kMax, -1}};
  auto tri = [](bool r) { return r ? Tri::kTrue : Tri::kFalse; };
  for (const auto& [x, y] : pairs) {
    Value vx = Value::Int(x), vy = Value::Int(y);
    EXPECT_EQ(EvalCmp(CmpOp::kEq, vx, vy), tri(x == y)) << x << " " << y;
    EXPECT_EQ(EvalCmp(CmpOp::kNe, vx, vy), tri(x != y)) << x << " " << y;
    EXPECT_EQ(EvalCmp(CmpOp::kLt, vx, vy), tri(x < y)) << x << " " << y;
    EXPECT_EQ(EvalCmp(CmpOp::kLe, vx, vy), tri(x <= y)) << x << " " << y;
    EXPECT_EQ(EvalCmp(CmpOp::kGt, vx, vy), tri(x > y)) << x << " " << y;
    EXPECT_EQ(EvalCmp(CmpOp::kGe, vx, vy), tri(x >= y)) << x << " " << y;
  }
}

TEST(EvalArithTest, NullPropagation) {
  EXPECT_TRUE(EvalArith(ArithOp::kAdd, Value::Null(), Value::Int(1)).is_null());
  EXPECT_TRUE(EvalArith(ArithOp::kMul, Value::Int(1), Value::Null()).is_null());
}

TEST(EvalArithTest, IntegerArithmeticStaysInt) {
  Value v = EvalArith(ArithOp::kMul, Value::Int(3), Value::Int(4));
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), 12);
}

TEST(EvalArithTest, DivisionIsDoubleAndZeroYieldsNull) {
  Value v = EvalArith(ArithOp::kDiv, Value::Int(3), Value::Int(2));
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.5);
  EXPECT_TRUE(EvalArith(ArithOp::kDiv, Value::Int(3), Value::Int(0)).is_null());
}

}  // namespace
}  // namespace gsopt
