// Regression tests for executor governance bugs: the Product reservation
// overflow, the hash-probe bucket loop running deadline-blind, and
// ExecutionEquivalent dropping its ExecuteOptions. Each test fails on the
// pre-fix code (by crash, by never ticking, or by ignoring the budget).
#include <chrono>

#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/budget.h"
#include "base/rng.h"
#include "exec/eval.h"
#include "exec/keys.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

Relation WideRelation(const std::string& name, int rows, uint64_t seed) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = 8;
  return MakeRandomRelation(name, {"x"}, opt, &rng);
}

TEST(ProductRegressionTest, LargeInputsDoNotOverflowReservation) {
  // 50000 x 50000: the exact cross-product cardinality (2.5e9) overflows
  // int, so the pre-fix `Reserve(a.NumRows() * b.NumRows())` was
  // signed-overflow UB -- in practice a negative count whose size_t
  // conversion made reserve() throw, before any cap could fire. Post-fix
  // the reservation is computed in 64 bits and clamped, and the row cap
  // stops the loop after a few thousand tuples.
  Relation a = WideRelation("a", 50000, 7);
  Relation b = WideRelation("b", 50000, 8);
  ResourceBudget budget;
  budget.WithMaxRows(1000);
  exec::ExecContext ctx{&budget, nullptr};
  auto out = exec::Product(a, b, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProductRegressionTest, ExpiredDeadlineStopsProductionPromptly) {
  Relation a = WideRelation("a", 2000, 9);
  Relation b = WideRelation("b", 2000, 10);
  ResourceBudget budget;
  budget.WithDeadline(ResourceBudget::Clock::now());  // already expired
  exec::ExecContext ctx{&budget, nullptr};
  auto out = exec::Product(a, b, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(HashJoinRegressionTest, ProbeTicksInsideSkewedBucket) {
  // One probe row whose key bucket holds the entire build side, with a
  // residual predicate that never matches: the pre-fix probe loop ticked
  // once per probe row, so this join ran the whole bucket deadline-blind
  // (deadline_checks() ~ 1). Post-fix it ticks per candidate pair.
  constexpr int kBucket = 5000;
  std::vector<std::vector<Value>> b_rows;
  b_rows.reserve(kBucket);
  for (int i = 0; i < kBucket; ++i) b_rows.push_back({I(1), I(0)});
  Relation b = MakeRelation("b", {"x", "y"}, b_rows);
  Relation a = MakeRelation("a", {"x", "y"}, {{I(1), I(0)}});

  // a.x = b.x is the hash key; a.y > b.y is residual and always false.
  Predicate p = Predicate::And(
      Predicate(MakeAtom("a", "x", CmpOp::kEq, "b", "x")),
      Predicate(MakeAtom("a", "y", CmpOp::kGt, "b", "y")));

  ResourceBudget budget;
  budget.WithDeadlineAfter(std::chrono::hours(1));
  exec::ExecContext ctx{&budget, nullptr};
  auto out = exec::InnerJoin(a, b, p, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NumRows(), 0);
  EXPECT_GE(budget.deadline_checks(), static_cast<uint64_t>(kBucket));
}

TEST(HashJoinRegressionTest, RowCapStopsJoinMidProduction) {
  // 300 x 300 rows over a 3-value key match ~30000 pairs; a 50-row cap
  // must stop the probe with kResourceExhausted, not finish the join.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 300; ++i) rows.push_back({I(i % 3), I(i)});
  Relation a = MakeRelation("a", {"x", "y"}, rows);
  Relation b = MakeRelation("b", {"x", "y"}, rows);
  ResourceBudget budget;
  budget.WithMaxRows(50);
  exec::ExecContext ctx{&budget, nullptr};
  auto out = exec::InnerJoin(
      a, b, Predicate(MakeAtom("a", "x", CmpOp::kEq, "b", "x")), ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status().message().find("row cap"), std::string::npos)
      << out.status().ToString();
}

TEST(ExecutionEquivalentRegressionTest, HonorsExecuteOptions) {
  // Pre-fix ExecutionEquivalent executed both plans with default options,
  // silently discarding the caller's budget; a row cap must now surface as
  // kResourceExhausted instead of an unbudgeted full run.
  Catalog cat;
  Rng rng(11);
  RandomRelationOptions opt;
  opt.num_rows = 30;
  opt.domain = 4;
  AddRandomTables(2, opt, &rng, &cat);
  NodePtr q = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                         Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")));

  ResourceBudget budget;
  budget.WithMaxRows(3);
  ExecuteOptions xo;
  xo.budget = &budget;
  auto eq = ExecutionEquivalent(q, q, cat, xo);
  ASSERT_FALSE(eq.ok());
  EXPECT_EQ(eq.status().code(), StatusCode::kResourceExhausted);

  // Without a budget the same comparison completes and agrees.
  auto plain = ExecutionEquivalent(q, q, cat);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(*plain);
}

std::string KeyOf(const Value& v) {
  std::string key;
  exec::AppendValueKey(v, &key);
  return key;
}

TEST(ValueKeyRegressionTest, SmallDoublesGetDistinctKeys) {
  // Pre-fix AppendValueKey encoded doubles with std::to_string, whose
  // fixed 6 fractional digits collapsed any pair of small doubles:
  // 1e-9 and 2e-9 both encoded as "0.000000" and merged in every hash
  // join, grouping, and GS difference.
  EXPECT_NE(KeyOf(Value::Double(1e-9)), KeyOf(Value::Double(2e-9)));
  EXPECT_NE(KeyOf(Value::Double(0.1234567)), KeyOf(Value::Double(0.1234568)));
  // Round-trippable: equal doubles still share a key.
  EXPECT_EQ(KeyOf(Value::Double(1e-9)), KeyOf(Value::Double(1e-9)));
}

TEST(ValueKeyRegressionTest, LargeIntsGetDistinctKeys) {
  // Pre-fix kInt encoding routed through static_cast<double>, so adjacent
  // int64s past 2^53 shared a key.
  constexpr int64_t kBig = (int64_t{1} << 53) + 1;
  EXPECT_NE(KeyOf(Value::Int(kBig)), KeyOf(Value::Int(kBig + 1)));
}

TEST(ValueKeyRegressionTest, IntAndWholeDoubleShareKey) {
  // IdentityEquals treats 1 == 1.0; the key encoding must agree so mixed
  // int/double join columns keep matching.
  EXPECT_EQ(KeyOf(Value::Int(1)), KeyOf(Value::Double(1.0)));
  EXPECT_EQ(KeyOf(Value::Int(-7)), KeyOf(Value::Double(-7.0)));
  EXPECT_NE(KeyOf(Value::Int(1)), KeyOf(Value::Double(1.5)));
}

TEST(ValueKeyRegressionTest, HashJoinSeparatesSmallDoubles) {
  // End-to-end symptom: joining on a double column holding 1e-9 vs 2e-9
  // produced a spurious match pre-fix (both rows landed in one bucket and
  // the equi-atom was not re-verified on the hash path).
  Relation a = MakeRelation("a", {"x"}, {{Value::Double(1e-9)}});
  Relation b = MakeRelation("b", {"x"}, {{Value::Double(2e-9)}});
  Predicate p(MakeAtom("a", "x", CmpOp::kEq, "b", "x"));
  auto out = exec::InnerJoin(a, b, p);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 0);
}

}  // namespace
}  // namespace gsopt
