// Resource-governed optimization: the syntactic fallback under a hostile
// 12-relation chain, plan-cap truncation, row-capped
// execution, and fallback opt-out.
#include <chrono>

#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/budget.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Catalog MakeCatalog(uint64_t seed, int n, int rows = 10) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = 6;
  opt.null_fraction = 0.1;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

// Left-deep equi-join chain r1 -x- r2 -x- ... -x- rn.
NodePtr ChainQuery(int n) {
  NodePtr q = Node::Leaf("r1");
  for (int i = 2; i <= n; ++i) {
    std::string prev = "r" + std::to_string(i - 1);
    std::string cur = "r" + std::to_string(i);
    q = Node::Join(q, Node::Leaf(cur),
                   Predicate(MakeAtom(prev, "a", CmpOp::kEq, cur, "a")));
  }
  return q;
}

TEST(BudgetFallbackTest, PathologicalQueryDegradesToValidPlan) {
  // 12-relation chain, exhaustive enumeration (prune off): the unpruned
  // generalized DP is far beyond a 50 ms deadline, so the optimizer must
  // fall back to the syntactic plan, whose construction needs no search,
  // and still return an executable plan, promptly.
  constexpr int kRels = 12;
  Catalog cat = MakeCatalog(41, kRels);
  NodePtr q = ChainQuery(kRels);
  QueryOptimizer opt(cat);

  ResourceBudget budget;
  budget.WithDeadlineAfter(std::chrono::milliseconds(50));
  OptimizeOptions oo;
  oo.prune = false;
  oo.mode = EnumMode::kGeneralized;
  oo.budget = &budget;

  auto start = std::chrono::steady_clock::now();
  auto result = opt.Optimize(q, oo);
  auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Bounded run: generous margin over the 50 ms deadline (the unpruned
  // 12-relation space would take orders of magnitude longer).
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // The fallback was actually exercised: the expired deadline is sticky,
  // so no cheaper enumeration is tried between the requested rung and the
  // syntactic one.
  EXPECT_TRUE(result->degradation.degraded())
      << result->degradation.ToString();
  EXPECT_EQ(result->degradation.requested, FallbackRung::kGeneralized);
  EXPECT_EQ(result->degradation.rung, FallbackRung::kSyntactic);
  EXPECT_EQ(result->degradation.attempts.size(), 1u)
      << result->degradation.ToString();
  EXPECT_NE(result->degradation.ToString().find("requested=generalized"),
            std::string::npos);

  // The degraded plan is valid: executes (fresh budget-free run) and
  // matches the as-written semantics.
  auto got = Execute(result->best.expr, cat);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto ref = Execute(q, cat);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(Relation::BagEquals(*ref, *got));
}

TEST(BudgetFallbackTest, PlanCapTruncatesWithoutDegradingRung) {
  // A tight plan cap (no deadline) stops exploration but never fails: the
  // requested rung still answers, flagged truncated.
  Catalog cat = MakeCatalog(42, 6);
  NodePtr q = ChainQuery(6);
  QueryOptimizer opt(cat);

  ResourceBudget budget;
  budget.WithMaxPlans(8);
  OptimizeOptions oo;
  oo.prune = false;
  oo.budget = &budget;
  auto result = opt.Optimize(q, oo);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->degradation.rung, result->degradation.requested);
  EXPECT_TRUE(result->degradation.truncated);
  EXPECT_TRUE(result->degradation.degraded());

  auto eq = ExecutionEquivalent(q, result->best.expr, cat);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(BudgetFallbackTest, UncappedRunReportsNoDegradation) {
  Catalog cat = MakeCatalog(43, 4);
  NodePtr q = ChainQuery(4);
  QueryOptimizer opt(cat);
  auto result = opt.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->degradation.degraded());
  EXPECT_EQ(result->degradation.ToString(), "none");
}

TEST(BudgetFallbackTest, FallbackOptOutSurfacesExhaustion) {
  Catalog cat = MakeCatalog(44, 12);
  NodePtr q = ChainQuery(12);
  QueryOptimizer opt(cat);

  ResourceBudget budget;
  budget.WithDeadline(ResourceBudget::Clock::now());  // already expired
  OptimizeOptions oo;
  oo.prune = false;
  oo.budget = &budget;
  oo.fallback = false;
  auto result = opt.Optimize(q, oo);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetFallbackTest, RowCappedExecutionExhausts) {
  // A cartesian-heavy plan against a small row cap: the executor unwinds
  // with kResourceExhausted instead of materializing everything.
  Catalog cat = MakeCatalog(45, 3, /*rows=*/30);
  NodePtr q = ChainQuery(3);
  ResourceBudget budget;
  budget.WithMaxRows(5);
  ExecuteOptions xo;
  xo.budget = &budget;
  auto rel = Execute(q, cat, xo);
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kResourceExhausted);

  // The same plan runs to completion without the cap.
  auto ok = Execute(q, cat);
  EXPECT_TRUE(ok.ok());
}

TEST(BudgetFallbackTest, BudgetedExecutionWithinCapMatchesUnbudgeted) {
  Catalog cat = MakeCatalog(46, 3);
  NodePtr q = ChainQuery(3);
  ResourceBudget budget;
  budget.WithMaxRows(1u << 20);
  ExecuteOptions xo;
  xo.budget = &budget;
  auto capped = Execute(q, cat, xo);
  ASSERT_TRUE(capped.ok());
  auto plain = Execute(q, cat);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(Relation::BagEquals(*capped, *plain));
  EXPECT_GT(budget.rows_charged(), 0u);
}

TEST(BudgetFallbackTest, EnumeratorReportsTruncationFlag) {
  // Direct enumerator-level check of the satellite requirement: hitting
  // max_plans sets truncated instead of dropping plans silently or
  // erroring.
  Catalog cat = MakeCatalog(47, 5);
  NodePtr q = ChainQuery(5);
  QueryOptimizer opt(cat);
  OptimizeOptions tight;
  tight.prune = false;
  tight.max_plans = 4;
  auto space = opt.EnumeratePlanSpace(q, tight);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_TRUE(space->truncated);
  ASSERT_FALSE(space->plans.empty());

  OptimizeOptions loose;
  loose.prune = false;
  auto full = opt.EnumeratePlanSpace(q, loose);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_GT(full->plans.size(), space->plans.size());
}

}  // namespace
}  // namespace gsopt
