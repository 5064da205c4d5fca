// Experiments M1/M2 (DESIGN.md): aggregation pull-up with deferred
// aggregate-referencing predicates -- paper §1.1 Query 1, Example 1.1 and
// Example 3.1. Every optimized plan must reproduce the as-written result.
#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "algebra/normalize.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

// --- Paper §1.1 Query 1 -----------------------------------------------------
//
// View V1: SELECT r1.c AS a, r2.d AS b, c = COUNT(r1.b)
//          FROM r1, r2 WHERE r1.b = r2.b GROUP BY r1.c, r2.d
// Query 1: SELECT ... FROM (V1 LOJ r3 ON r3.b < V1.c), r4
//          WHERE r4.b = V1.b
//
// The LOJ predicate references the COUNT column, so V1 cannot be merged by
// classical rules; pull-up + GS makes all four relations reorderable.

struct Query1 {
  exec::GroupBySpec spec;
  NodePtr query;

  Query1() {
    NodePtr v1_join = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                                 Predicate(MakeAtom("r1", "b", CmpOp::kEq,
                                                    "r2", "b")));
    spec.group_cols = {Attribute{"r1", "c"}, Attribute{"r2", "c"}};
    exec::AggSpec cnt;
    cnt.func = exec::AggFunc::kCount;
    cnt.input = Scalar::Column("r1", "b");
    cnt.out_rel = "V1";
    cnt.out_name = "c";
    spec.aggs = {cnt};
    NodePtr v1 = Node::GroupBy(v1_join, spec);

    // Outer join predicate references the aggregated column V1.c.
    Predicate oj(MakeAtom("r3", "b", CmpOp::kLt, "V1", "c"));
    NodePtr loj = Node::LeftOuterJoin(v1, Node::Leaf("r3"), oj);
    // r4.b = V1.b, where V1.b is r2.d.
    Predicate join_p(MakeAtom("r4", "b", CmpOp::kEq, "r2", "c"));
    query = Node::Join(loj, Node::Leaf("r4"), join_p);
  }
};

Catalog MakeCatalog(uint64_t seed, int n) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 9;
  opt.domain = 3;
  opt.null_fraction = 0.1;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

TEST(Query1Test, NormalizationPullsAggregationAboveAllJoins) {
  Query1 q;
  Catalog cat = MakeCatalog(5, 4);
  auto nq = NormalizeForReordering(q.query, cat);
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  // The join tree must contain all four base relations as reorderable
  // leaves -- the paper's headline capability for Query 1.
  EXPECT_EQ(nq->join_tree->BaseRels().size(), 4u);
  bool has_gp = false, has_gs = false;
  for (const Wrapper& w : nq->wrappers) {
    if (w.kind == Wrapper::Kind::kGroupBy) has_gp = true;
    if (w.kind == Wrapper::Kind::kGeneralizedSelection && !w.pred.IsTrue()) {
      has_gs = true;
    }
  }
  EXPECT_TRUE(has_gp);
  EXPECT_TRUE(has_gs);
}

TEST(Query1Test, AllPlansEquivalentToAsWritten) {
  Query1 q;
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    Catalog cat = MakeCatalog(seed, 4);
    QueryOptimizer opt(cat);
    OptimizeOptions oo;
    oo.prune = false;  // full plan space
    auto space = opt.EnumeratePlanSpace(q.query, oo);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    EXPECT_GT(space->plans.size(), 1u);
    auto ref = Execute(q.query, cat);
    ASSERT_TRUE(ref.ok());
    for (const PlanInfo& p : space->plans) {
      auto got = Execute(p.expr, cat);
      ASSERT_TRUE(got.ok()) << p.expr->ToString();
      EXPECT_TRUE(Relation::BagEquals(*ref, *got))
          << "seed " << seed << "\nplan: " << p.expr->ToString();
    }
  }
}

TEST(Query1Test, SomePlanJoinsR4BeforeAggregation) {
  // "if predicate r4.b = V1.b is highly filtering then it may be
  // beneficial to perform this join first, before performing the
  // aggregation" -- such plans must exist in the enumerated space.
  Query1 q;
  Catalog cat = MakeCatalog(5, 4);
  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(q.query, oo);
  ASSERT_TRUE(space.ok());
  bool r4_below_gp = false;
  for (const PlanInfo& p : space->plans) {
    // Find a GROUPBY node whose subtree already contains r4.
    std::function<bool(const NodePtr&)> visit = [&](const NodePtr& n) {
      if (n == nullptr) return false;
      if (n->kind() == OpKind::kGroupBy &&
          n->BaseRels().count("r4") > 0) {
        return true;
      }
      return (n->left() && visit(n->left())) ||
             (n->right() && visit(n->right()));
    };
    if (visit(p.expr)) r4_below_gp = true;
  }
  EXPECT_TRUE(r4_below_gp);
}

// --- Paper Example 1.1 (suppliers) ------------------------------------------

struct SupplierScenario {
  Catalog cat;
  NodePtr query;

  explicit SupplierScenario(uint64_t seed, int n94 = 12, int n95 = 40,
                            int nsup = 8, double bankrupt_frac = 0.3) {
    Rng rng(seed);
    GSOPT_CHECK(cat.CreateTable("agg94", {"supkey", "partkey", "qty"}).ok());
    GSOPT_CHECK(
        cat.CreateTable("detail95", {"supkey", "partkey", "qty"}).ok());
    GSOPT_CHECK(cat.CreateTable("sup", {"supkey", "rating"}).ok());
    for (int i = 0; i < nsup; ++i) {
      int64_t rating = rng.Bernoulli(bankrupt_frac) ? 0 : 1;  // 0 = BANKRUPT
      GSOPT_CHECK(cat.Insert("sup", {I(i), I(rating)}).ok());
    }
    for (int i = 0; i < n94; ++i) {
      GSOPT_CHECK(cat.Insert("agg94", {I(rng.Uniform(0, nsup - 1)),
                                       I(rng.Uniform(0, 3)),
                                       I(rng.Uniform(1, 20))})
                      .ok());
    }
    for (int i = 0; i < n95; ++i) {
      GSOPT_CHECK(cat.Insert("detail95", {I(rng.Uniform(0, nsup - 1)),
                                          I(rng.Uniform(0, 3)),
                                          I(rng.Uniform(1, 20))})
                      .ok());
    }

    // V2 = agg94 JOIN sup ON supkey, rating = BANKRUPT
    NodePtr v2 = Node::Join(
        Node::Leaf("agg94"),
        Node::Select(Node::Leaf("sup"),
                     Predicate(MakeConstAtom("sup", "rating", CmpOp::kEq,
                                             I(0)))),
        Predicate(MakeAtom("agg94", "supkey", CmpOp::kEq, "sup", "supkey")));
    // V3 = SELECT supkey, partkey, COUNT(*) FROM detail95 GROUP BY ...
    exec::GroupBySpec spec;
    spec.group_cols = {Attribute{"detail95", "supkey"},
                       Attribute{"detail95", "partkey"}};
    exec::AggSpec cnt;
    cnt.func = exec::AggFunc::kCountStar;
    cnt.out_rel = "V3";
    cnt.out_name = "aggqty95";
    spec.aggs = {cnt};
    NodePtr v3 = Node::GroupBy(Node::Leaf("detail95"), spec);

    // V2 LOJ V3 ON supkey=, partkey=, qty < 2 * aggqty95
    Predicate p;
    p.AddAtom(MakeAtom("agg94", "supkey", CmpOp::kEq, "detail95", "supkey"));
    p.AddAtom(MakeAtom("agg94", "partkey", CmpOp::kEq, "detail95", "partkey"));
    Atom agg_atom;
    agg_atom.lhs = Scalar::Column("agg94", "qty");
    agg_atom.op = CmpOp::kLt;
    agg_atom.rhs = Scalar::Arith(ArithOp::kMul, Scalar::Const(I(2)),
                                 Scalar::Column("V3", "aggqty95"));
    p.AddAtom(agg_atom);
    query = Node::LeftOuterJoin(v2, v3, p);
  }
};

TEST(Example11Test, AllPlansEquivalentToAsWritten) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SupplierScenario sc(seed);
    QueryOptimizer opt(sc.cat);
    OptimizeOptions oo;
    oo.prune = false;
    auto space = opt.EnumeratePlanSpace(sc.query, oo);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    auto ref = Execute(sc.query, sc.cat);
    ASSERT_TRUE(ref.ok());
    for (const PlanInfo& p : space->plans) {
      auto got = Execute(p.expr, sc.cat);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(Relation::BagEquals(*ref, *got))
          << "seed " << seed << "\nplan: " << p.expr->ToString();
    }
  }
}

TEST(Example11Test, PlanSpaceContainsJoinBeforeAggregation) {
  // The paper's alternative: combine 94AGG/SUP_DETAIL with 95DETAIL before
  // aggregating 95DETAIL.
  SupplierScenario sc(1);
  QueryOptimizer opt(sc.cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(sc.query, oo);
  ASSERT_TRUE(space.ok());
  bool join_before_agg = false;
  for (const PlanInfo& p : space->plans) {
    std::function<bool(const NodePtr&)> visit = [&](const NodePtr& n) {
      if (n == nullptr) return false;
      if (n->kind() == OpKind::kGroupBy && n->BaseRels().count("agg94") > 0 &&
          n->BaseRels().count("detail95") > 0) {
        return true;
      }
      return (n->left() && visit(n->left())) ||
             (n->right() && visit(n->right()));
    };
    if (visit(p.expr)) join_before_agg = true;
  }
  EXPECT_TRUE(join_before_agg);
}

TEST(Example11Test, OptimizerPicksCheaperPlanWhenFilterIsSelective) {
  // Few bankrupt suppliers => tiny V2 => joining before aggregating the
  // large detail table should win in estimated cost.
  SupplierScenario sc(9, /*n94=*/6, /*n95=*/400, /*nsup=*/40,
                      /*bankrupt_frac=*/0.05);
  QueryOptimizer opt(sc.cat);
  auto result = opt.Optimize(sc.query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->best.cost, result->original_cost);
  auto ref = Execute(sc.query, sc.cat);
  auto got = Execute(result->best.expr, sc.cat);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Relation::BagEquals(*ref, *got));
}

TEST(Example11Test, PlanTextIsReproducibleWithinOneProcess) {
  // Normalization names its aux columns (`present<n>`) per query, not from
  // a process-wide counter: optimizing the same query twice prints the
  // same plan byte for byte. The selective filter makes the winning plan
  // join before aggregating, which needs an aux presence column.
  SupplierScenario sc(9, /*n94=*/6, /*n95=*/400, /*nsup=*/40,
                      /*bankrupt_frac=*/0.05);
  QueryOptimizer opt(sc.cat);
  auto first = opt.Optimize(sc.query);
  auto second = opt.Optimize(sc.query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::string text = first->best.expr->ToString();
  EXPECT_NE(text.find("present"), std::string::npos)
      << "no aux column; the test is vacuous:\n" << text;
  EXPECT_EQ(text, second->best.expr->ToString());
}

// --- Example 3.1 shape -------------------------------------------------------

TEST(Example31Test, AggregationBelowComplexOuterJoinReorders) {
  // r = GP(r1 LOJ r2) LOJ_{p13 ^ p23} r3 with p13 referencing COUNT.
  Catalog cat = MakeCatalog(11, 3);
  NodePtr inner = Node::LeftOuterJoin(
      Node::Leaf("r1"), Node::Leaf("r2"),
      Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")));
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "b"}, Attribute{"r2", "c"}};
  exec::AggSpec cnt;
  cnt.func = exec::AggFunc::kCount;
  cnt.input = Scalar::Column("r1", "a");
  cnt.out_rel = "V";
  cnt.out_name = "c";
  spec.aggs = {cnt};
  NodePtr gp = Node::GroupBy(inner, spec);
  Predicate p;
  p.AddAtom(MakeAtom("r3", "b", CmpOp::kLe, "V", "c"));   // p13 (agg ref)
  p.AddAtom(MakeAtom("r2", "c", CmpOp::kEq, "r3", "c"));  // p23
  NodePtr query = Node::LeftOuterJoin(gp, Node::Leaf("r3"), p);

  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(query, oo);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_GT(space->plans.size(), 1u);
  auto ref = Execute(query, cat);
  ASSERT_TRUE(ref.ok());
  for (const PlanInfo& pi : space->plans) {
    auto got = Execute(pi.expr, cat);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(Relation::BagEquals(*ref, *got)) << pi.expr->ToString();
  }
}

// --- Randomized pull-up property --------------------------------------------

TEST(PullupPropertyTest, RandomAggViewQueriesStayEquivalent) {
  // GP view joined/outer-joined with extra relations under random
  // predicates (mixing group-column and aggregate-column references).
  for (uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    Catalog cat = MakeCatalog(seed, 3);
    NodePtr base = Node::Join(
        Node::Leaf("r1"), Node::Leaf("r2"),
        Predicate(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")));
    exec::GroupBySpec spec;
    spec.group_cols = {Attribute{"r1", "b"}, Attribute{"r2", "b"}};
    exec::AggSpec agg;
    agg.func = rng.Bernoulli(0.5) ? exec::AggFunc::kCount
                                  : exec::AggFunc::kMax;
    agg.input = Scalar::Column("r1", "c");
    agg.out_rel = "V";
    agg.out_name = "agg";
    spec.aggs = {agg};
    NodePtr view = Node::GroupBy(base, spec);

    Predicate p(MakeAtom("r1", "b", CmpOp::kEq, "r3", "a"));
    if (rng.Bernoulli(0.7)) {
      CmpOp op = rng.Bernoulli(0.5) ? CmpOp::kLe : CmpOp::kNe;
      p.AddAtom(MakeAtom("r3", "b", op, "V", "agg"));
    }
    NodePtr query;
    double roll = rng.NextDouble();
    if (roll < 0.4) {
      query = Node::LeftOuterJoin(view, Node::Leaf("r3"), p);
    } else if (roll < 0.7) {
      query = Node::RightOuterJoin(Node::Leaf("r3"), view, p);
    } else {
      query = Node::Join(view, Node::Leaf("r3"), p);
    }

    QueryOptimizer opt(cat);
    OptimizeOptions oo;
    oo.prune = false;
    auto space = opt.EnumeratePlanSpace(query, oo);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    auto ref = Execute(query, cat);
    ASSERT_TRUE(ref.ok());
    for (const PlanInfo& pi : space->plans) {
      auto got = Execute(pi.expr, cat);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(Relation::BagEquals(*ref, *got))
          << "seed " << seed << "\nquery: " << query->ToString()
          << "\nplan: " << pi.expr->ToString()
          << "\nexpected:\n" << ref->ToString(16)
          << "\ngot:\n" << got->ToString(16);
    }
  }
}

}  // namespace
}  // namespace gsopt
