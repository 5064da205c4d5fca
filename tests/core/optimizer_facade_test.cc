// QueryOptimizer facade: pipeline behaviour, no-regression guarantee,
// pruning vs exhaustive agreement, projection-root handling, fallbacks.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/rng.h"
#include "enumerate/random_query.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Catalog MakeCatalog(uint64_t seed, int n, int rows = 20) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = 6;
  opt.null_fraction = 0.1;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

TEST(OptimizerFacadeTest, NoRegressionAgainstAsWritten) {
  // The chosen plan's estimated cost never exceeds the (simplified)
  // as-written plan: the original stays a candidate.
  Rng rng(900);
  for (int trial = 0; trial < 20; ++trial) {
    Catalog cat = MakeCatalog(900 + trial, 4);
    RandomQueryOptions qopt;
    qopt.num_rels = 4;
    qopt.loj_prob = 0.4;
    qopt.foj_prob = 0.15;
    qopt.extra_atom_prob = 0.5;
    NodePtr q = MakeRandomQuery(qopt, &rng);
    QueryOptimizer opt(cat);
    auto result = opt.Optimize(q);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->best.cost,
              opt.cost_model().Cost(result->simplified) * (1 + 1e-9));
  }
}

TEST(OptimizerFacadeTest, PrunedAndExhaustiveAgreeOnBestCost) {
  for (uint64_t seed : {71ull, 72ull, 73ull}) {
    Catalog cat = MakeCatalog(seed, 4);
    Rng rng(seed);
    RandomQueryOptions qopt;
    qopt.num_rels = 4;
    qopt.loj_prob = 0.5;
    qopt.extra_atom_prob = 0.5;
    NodePtr q = MakeRandomQuery(qopt, &rng);
    QueryOptimizer opt(cat);
    OptimizeOptions pruned;
    pruned.prune = true;
    OptimizeOptions full;
    full.prune = false;
    auto rp = opt.Optimize(q, pruned);
    auto rf = opt.Optimize(q, full);
    ASSERT_TRUE(rp.ok());
    ASSERT_TRUE(rf.ok());
    EXPECT_NEAR(rp->best.cost, rf->best.cost, 1e-6 * rf->best.cost)
        << q->ToString();
    EXPECT_LE(rp->plans_considered, rf->plans_considered);
  }
}

TEST(OptimizerFacadeTest, SingleTableQuery) {
  Catalog cat = MakeCatalog(1, 1);
  QueryOptimizer opt(cat);
  auto result = opt.Optimize(Node::Leaf("r1"));
  ASSERT_TRUE(result.ok());
  auto rel = Execute(result->best.expr, cat);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 20);
}

TEST(OptimizerFacadeTest, RootProjectionIsReappliedOnEveryPlan) {
  Catalog cat = MakeCatalog(2, 3);
  NodePtr joins = Node::LeftOuterJoin(
      Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                 Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"))),
      Node::Leaf("r3"),
      Predicate(MakeAtom("r2", "b", CmpOp::kEq, "r3", "b")));
  NodePtr q = Node::Project(joins, {Attribute{"r1", "a"},
                                    Attribute{"r3", "c"}});
  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(q, oo);
  ASSERT_TRUE(space.ok());
  EXPECT_GT(space->plans.size(), 1u);
  auto ref = Execute(q, cat);
  ASSERT_TRUE(ref.ok());
  for (const PlanInfo& p : space->plans) {
    EXPECT_EQ(p.expr->kind(), OpKind::kProject);
    auto got = Execute(p.expr, cat);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->schema().size(), 2);
    EXPECT_TRUE(Relation::BagEquals(*ref, *got));
  }
}

TEST(OptimizerFacadeTest, OpaqueOnlyQueryFallsBack) {
  // A bare GROUP BY has no join tree: the facade must still return a
  // valid (single) plan.
  Catalog cat = MakeCatalog(3, 1);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec cnt;
  cnt.func = exec::AggFunc::kCountStar;
  cnt.out_rel = "q";
  cnt.out_name = "c";
  spec.aggs = {cnt};
  NodePtr q = Node::GroupBy(Node::Leaf("r1"), spec);
  QueryOptimizer opt(cat);
  auto result = opt.Optimize(q);
  ASSERT_TRUE(result.ok());
  auto eq = ExecutionEquivalent(q, result->best.expr, cat);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(OptimizerFacadeTest, SimplificationVisibleInResult) {
  Catalog cat = MakeCatalog(4, 3);
  // LOJ made redundant by the join above it.
  NodePtr q = Node::Join(
      Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                          Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2",
                                             "a"))),
      Node::Leaf("r3"),
      Predicate(MakeAtom("r2", "b", CmpOp::kEq, "r3", "b")));
  QueryOptimizer opt(cat);
  auto result = opt.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->simplified->ToString(), q->ToString());
  auto eq = ExecutionEquivalent(q, result->best.expr, cat);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(OptimizerFacadeTest, ModesAreOrderedByCoverage) {
  Catalog cat = MakeCatalog(5, 4);
  // Complex-predicate query: generalized mode must consider at least as
  // many plans as the baselines (without pruning).
  NodePtr q = Node::LeftOuterJoin(
      Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                          Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2",
                                             "a"))),
      Node::Join(Node::Leaf("r3"), Node::Leaf("r4"),
                 Predicate(MakeAtom("r3", "a", CmpOp::kEq, "r4", "a"))),
      Predicate({MakeAtom("r1", "b", CmpOp::kEq, "r3", "b"),
                 MakeAtom("r2", "c", CmpOp::kLe, "r4", "c")}));
  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  size_t counts[3];
  int i = 0;
  for (EnumMode m : {EnumMode::kBinaryOnly, EnumMode::kBaseline,
                     EnumMode::kGeneralized}) {
    oo.mode = m;
    auto space = opt.EnumeratePlanSpace(q, oo);
    ASSERT_TRUE(space.ok());
    counts[i++] = space->plans.size();
  }
  EXPECT_LE(counts[0], counts[1]);
  EXPECT_LT(counts[1], counts[2]);
}

TEST(OptimizerFacadeTest, NullQueryRejected) {
  Catalog cat = MakeCatalog(6, 1);
  QueryOptimizer opt(cat);
  EXPECT_FALSE(opt.Optimize(nullptr).ok());
}

}  // namespace
}  // namespace gsopt
