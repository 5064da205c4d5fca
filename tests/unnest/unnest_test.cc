// Experiment M3 (DESIGN.md): the paper's §1.1 join-aggregate queries --
// TIS ground truth vs the Query 2/3-style unnesting, including the
// doubly-nested COUNT query and the COUNT bug.
#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/datagen.h"
#include "unnest/nested_query.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

Catalog MakeCatalog(uint64_t seed, int rows, int domain,
                    double null_fraction = 0.1) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = domain;
  opt.null_fraction = null_fraction;
  AddRandomTables(3, opt, &rng, &cat);
  return cat;
}

// Single-level: SELECT r1.a FROM r1 WHERE r1.b θ1 (SELECT COUNT(*) FROM r2
// WHERE r2.c = r1.c)
NestedQuery SingleLevel(CmpOp theta1) {
  NestedQuery q;
  q.outer.table = "r1";
  q.outer.condition = CountCondition{Scalar::Column("r1", "b"), theta1};
  auto inner = std::make_shared<NestedBlock>();
  inner->table = "r2";
  inner->correlation = Predicate(MakeAtom("r2", "c", CmpOp::kEq, "r1", "c"));
  q.outer.nested = inner;
  q.select_cols = {Attribute{"r1", "a"}};
  return q;
}

// The paper's doubly-nested query.
NestedQuery DoubleLevel(CmpOp theta1, CmpOp theta2) {
  NestedQuery q;
  q.outer.table = "r1";
  q.outer.condition = CountCondition{Scalar::Column("r1", "b"), theta1};
  auto mid = std::make_shared<NestedBlock>();
  mid->table = "r2";
  mid->correlation = Predicate(MakeAtom("r2", "c", CmpOp::kEq, "r1", "c"));
  mid->condition = CountCondition{Scalar::Column("r2", "a"), theta2};
  auto inner = std::make_shared<NestedBlock>();
  inner->table = "r3";
  // Complex correlation: r2.b = r3.b AND r1.a = r3.a (references BOTH
  // ancestors, the paper's Query 2 shape).
  inner->correlation =
      Predicate({MakeAtom("r2", "b", CmpOp::kEq, "r3", "b"),
                 MakeAtom("r1", "a", CmpOp::kEq, "r3", "a")});
  mid->nested = inner;
  q.outer.nested = mid;
  q.select_cols = {Attribute{"r1", "a"}};
  return q;
}

TEST(UnnestTest, SingleLevelMatchesTis) {
  for (CmpOp theta : {CmpOp::kEq, CmpOp::kGe, CmpOp::kLt, CmpOp::kNe}) {
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
      Catalog cat = MakeCatalog(seed, 10, 3);
      NestedQuery q = SingleLevel(theta);
      auto tis = ExecuteTis(q, cat);
      ASSERT_TRUE(tis.ok());
      auto tree = UnnestToAlgebra(q, cat);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      auto got = Execute(*tree, cat);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(Relation::BagEquals(*tis, *got))
          << "theta " << CmpOpName(theta) << " seed " << seed << "\n"
          << (*tree)->ToString();
    }
  }
}

TEST(UnnestTest, CountBugZeroCountsSurvive) {
  // The classic COUNT bug: outer rows with NO matching inner rows must
  // appear when θ1 compares favorably against zero. Build data where some
  // r1.c values never occur in r2.
  Catalog cat;
  GSOPT_CHECK(cat.CreateTable("r1", {"a", "b", "c"}).ok());
  GSOPT_CHECK(cat.CreateTable("r2", {"a", "b", "c"}).ok());
  GSOPT_CHECK(cat.CreateTable("r3", {"a", "b", "c"}).ok());
  // r1 row with c=99 has no r2 partner; its count is 0 and b=0 so the
  // condition r1.b = COUNT(*) holds.
  GSOPT_CHECK(cat.Insert("r1", {I(1), I(0), I(99)}).ok());
  GSOPT_CHECK(cat.Insert("r1", {I(2), I(1), I(5)}).ok());
  GSOPT_CHECK(cat.Insert("r2", {I(7), I(7), I(5)}).ok());

  NestedQuery q = SingleLevel(CmpOp::kEq);
  auto tis = ExecuteTis(q, cat);
  ASSERT_TRUE(tis.ok());
  EXPECT_EQ(tis->NumRows(), 2);  // both rows qualify (counts 0 and 1)
  auto tree = UnnestToAlgebra(q, cat);
  ASSERT_TRUE(tree.ok());
  auto got = Execute(*tree, cat);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Relation::BagEquals(*tis, *got));
}

TEST(UnnestTest, DoubleLevelMatchesTisAcrossOperators) {
  for (CmpOp theta1 : {CmpOp::kGe, CmpOp::kNe}) {
    for (CmpOp theta2 : {CmpOp::kLt, CmpOp::kEq}) {
      for (uint64_t seed : {4ull, 5ull}) {
        Catalog cat = MakeCatalog(seed, 8, 3);
        NestedQuery q = DoubleLevel(theta1, theta2);
        auto tis = ExecuteTis(q, cat);
        ASSERT_TRUE(tis.ok());
        auto tree = UnnestToAlgebra(q, cat);
        ASSERT_TRUE(tree.ok());
        auto got = Execute(*tree, cat);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(Relation::BagEquals(*tis, *got))
            << CmpOpName(theta1) << "/" << CmpOpName(theta2) << " seed "
            << seed << "\n" << (*tree)->ToString();
      }
    }
  }
}

TEST(UnnestTest, InnerLocalFiltersRespected) {
  Catalog cat = MakeCatalog(9, 10, 3);
  NestedQuery q = SingleLevel(CmpOp::kGe);
  q.outer.nested->local =
      Predicate(MakeConstAtom("r2", "a", CmpOp::kGe, I(1)));
  auto tis = ExecuteTis(q, cat);
  auto tree = UnnestToAlgebra(q, cat);
  ASSERT_TRUE(tis.ok());
  ASSERT_TRUE(tree.ok());
  auto got = Execute(*tree, cat);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Relation::BagEquals(*tis, *got));
}

TEST(UnnestTest, UnnestedQueryIsOptimizableAndPlansStayCorrect) {
  // The unnested tree (with its complex correlation predicate) must feed
  // the optimizer, and every enumerated plan must match TIS.
  Catalog cat = MakeCatalog(11, 7, 3);
  NestedQuery q = DoubleLevel(CmpOp::kGe, CmpOp::kLt);
  auto tis = ExecuteTis(q, cat);
  ASSERT_TRUE(tis.ok());
  auto tree = UnnestToAlgebra(q, cat);
  ASSERT_TRUE(tree.ok());

  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(*tree, oo);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_GE(space->plans.size(), 1u);
  for (const PlanInfo& p : space->plans) {
    auto got = Execute(p.expr, cat);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(Relation::BagEquals(*tis, *got)) << p.expr->ToString();
  }
}

TEST(UnnestTest, RejectsMalformedChain) {
  NestedQuery q;
  q.outer.table = "r1";
  q.outer.condition = CountCondition{Scalar::Column("r1", "b"), CmpOp::kEq};
  // condition without nested block
  Catalog cat = MakeCatalog(1, 3, 3);
  EXPECT_FALSE(UnnestToAlgebra(q, cat).ok());
}

}  // namespace
}  // namespace gsopt
