#include "relational/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

TEST(EvalArithTest, IntegerOverflowFallsBackToDouble) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    ArithOp op;
    int64_t x, y;
  };
  const Case overflows[] = {
      {ArithOp::kAdd, kMax, 1},    {ArithOp::kAdd, kMin, -1},
      {ArithOp::kAdd, kMax, kMax}, {ArithOp::kSub, kMin, 1},
      {ArithOp::kSub, kMax, -1},   {ArithOp::kSub, 0, kMin},
      {ArithOp::kMul, kMax, 2},    {ArithOp::kMul, kMin, -1},
      {ArithOp::kMul, -1, kMin},   {ArithOp::kMul, kMin, kMin}};
  for (const Case& c : overflows) {
    Value v = EvalArith(c.op, Value::Int(c.x), Value::Int(c.y));
    Value want = EvalArith(c.op, Value::Double(static_cast<double>(c.x)),
                           Value::Double(static_cast<double>(c.y)));
    ASSERT_EQ(v.type(), ValueType::kDouble) << c.x << " " << c.y;
    EXPECT_EQ(v.AsDouble(), want.AsDouble()) << c.x << " " << c.y;
  }
  EXPECT_EQ(EvalArith(ArithOp::kAdd, Value::Int(kMax), Value::Int(1))
                .AsDouble(),
            9223372036854775808.0);
  // Results that land exactly on the ends of the range stay int.
  const Case exact[] = {{ArithOp::kAdd, kMax - 1, 1},
                        {ArithOp::kSub, kMin + 1, 1},
                        {ArithOp::kMul, kMin / 2, 2},
                        {ArithOp::kMul, kMax, -1},
                        {ArithOp::kAdd, kMin, kMax}};
  const int64_t want[] = {kMax, kMin, kMin, kMin + 1, -1};
  for (size_t i = 0; i < std::size(exact); ++i) {
    Value v = EvalArith(exact[i].op, Value::Int(exact[i].x),
                        Value::Int(exact[i].y));
    ASSERT_EQ(v.type(), ValueType::kInt) << i;
    EXPECT_EQ(v.AsInt(), want[i]) << i;
  }
}

TEST(EvalArithTest, DivisionIsDoubleAndZeroYieldsNull) {
  Value v = EvalArith(ArithOp::kDiv, Value::Int(3), Value::Int(2));
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.5);
  EXPECT_TRUE(EvalArith(ArithOp::kDiv, Value::Int(3), Value::Int(0)).is_null());
}

// One value of every type. The string is longer than std::string's
// small-string buffer, so its characters live in a separate heap block
// and a copy that outlives the shared block reads freed memory (ASan).
std::vector<Value> OneOfEach() {
  return {Value::Null(), Value::Int(-7), Value::Double(2.5),
          Value::String(std::string(40, 's'))};
}

void ExpectSame(const Value& a, const Value& b) {
  ASSERT_EQ(a.type(), b.type());
  EXPECT_TRUE(Value::IdentityEquals(a, b)) << a.ToString() << " vs "
                                           << b.ToString();
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(ValueLayoutTest, SixteenBytes) { EXPECT_EQ(sizeof(Value), 16u); }

TEST(ValueLifetimeTest, CopyAndMoveConstructEveryType) {
  for (const Value& v : OneOfEach()) {
    Value copy(v);
    ExpectSame(copy, v);
    Value moved(std::move(copy));
    ExpectSame(moved, v);
    EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)
  }
}

TEST(ValueLifetimeTest, CopyAndMoveAssignAcrossEveryTypePair) {
  const std::vector<Value> all = OneOfEach();
  for (const Value& from : all) {
    for (const Value& to : all) {
      Value dst = to;
      dst = from;
      ExpectSame(dst, from);
      Value src = from;
      Value dst2 = to;
      dst2 = std::move(src);
      ExpectSame(dst2, from);
      EXPECT_TRUE(src.is_null());  // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(ValueLifetimeTest, SelfAssignmentKeepsTheValue) {
  for (const Value& v : OneOfEach()) {
    Value x = v;
    Value& alias = x;
    x = alias;
    ExpectSame(x, v);
    x = std::move(alias);
    ExpectSame(x, v);
  }
}

TEST(ValueLifetimeTest, StringOutlivesItsSource) {
  Value kept;
  {
    Value src = Value::String("outlives " + std::string(32, 'x'));
    kept = src;
    Value other = src;
    src = Value::Int(1);  // drop the source's count while copies live
  }
  EXPECT_EQ(kept.AsString(), "outlives " + std::string(32, 'x'));
  Value moved = std::move(kept);
  EXPECT_EQ(moved.AsString(), "outlives " + std::string(32, 'x'));
}

TEST(ValueLifetimeTest, MovedFromValueReadsAsNull) {
  Value s = Value::String("abc");
  Value t = std::move(s);
  EXPECT_TRUE(s.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(s.ToString(), "NULL");
  s = Value::Int(3);  // a moved-from value is reusable
  EXPECT_EQ(s.AsInt(), 3);
  EXPECT_EQ(t.AsString(), "abc");
}

// Threads copy and destroy Values that share one string block: the count
// is the only state they write, so a non-atomic or wrongly ordered update
// shows as a leak, a double free or a data race under the sanitizers.
TEST(ValueLifetimeTest, ThreadsShareOneStringBlock) {
  const std::string text(64, 'q');
  Value shared = Value::String(text);
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &text] {
      std::vector<Value> held;
      for (int i = 0; i < kRounds; ++i) {
        held.push_back(shared);
        if (held.size() == 16) {
          Value moved = std::move(held.back());
          if (moved.AsString() != text) std::abort();
          held.clear();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(shared.AsString(), text);
}

}  // namespace
}  // namespace gsopt
