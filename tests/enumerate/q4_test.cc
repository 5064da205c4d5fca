// Experiment Q4 (DESIGN.md): the paper's Example 3.2 break-up family, and
// the completeness gap between Definition 2.3 and Definition 3.2 trees.
#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/rng.h"
#include "enumerate/enumerator.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Predicate P(const std::string& r1, const std::string& c1,
            const std::string& r2, const std::string& c2) {
  return Predicate(MakeAtom(r1, c1, CmpOp::kEq, r2, c2));
}

// Q4 = r1 ->p12 (r2 ->p24^p25 ((r4 JOIN_p45 r5) JOIN_p35 r3))
NodePtr BuildQ4() {
  Predicate p24_25 = Predicate::And(P("r2", "a", "r4", "a"),
                                    P("r2", "b", "r5", "b"));
  NodePtr r45 = Node::Join(Node::Leaf("r4"), Node::Leaf("r5"),
                           P("r4", "c", "r5", "c"));
  NodePtr r453 = Node::Join(r45, Node::Leaf("r3"), P("r5", "a", "r3", "a"));
  NodePtr right = Node::LeftOuterJoin(Node::Leaf("r2"), r453, p24_25);
  return Node::LeftOuterJoin(Node::Leaf("r1"), right, P("r1", "a", "r2", "a"));
}

Catalog MakeCatalog(uint64_t seed, int num_rels, int rows, int domain) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = domain;
  opt.null_fraction = 0.1;
  AddRandomTables(num_rels, opt, &rng, &cat);
  return cat;
}

TEST(Q4Test, GeneralizedModeStrictlyEnlargesTreeSpace) {
  auto hor = BuildHypergraph(BuildQ4());
  ASSERT_TRUE(hor.ok());
  EnumOptions base;
  base.mode = EnumMode::kBaseline;
  EnumOptions gen;
  gen.mode = EnumMode::kGeneralized;
  auto nbase = Enumerator(*hor, base).CountAssociationTrees();
  auto ngen = Enumerator(*hor, gen).CountAssociationTrees();
  ASSERT_TRUE(nbase.ok());
  ASSERT_TRUE(ngen.ok());
  // Definition 2.3 requires r4,r5 combined before r2 joins them; breaking
  // h2 into p24/p25 sub-edges admits (r2.r4) and (r2.r5) first.
  EXPECT_GT(*ngen, *nbase);
  // The paper lists association trees like (r1.((r2.r4).(r5.r3))): in the
  // relaxed definition both break-ups of h2 are available.
  EXPECT_GE(*ngen, 4);
}

TEST(Q4Test, PaperBreakupExpressionsAreEnumerated) {
  auto hor = BuildHypergraph(BuildQ4());
  ASSERT_TRUE(hor.ok());
  EnumOptions gen;
  gen.mode = EnumMode::kGeneralized;
  auto space = Enumerator(*hor, gen).Enumerate();
  ASSERT_TRUE(space.ok()) << space.status().ToString();

  // Expect at least one plan deferring p24 and one deferring p25 with the
  // composite preserved group {r1, r2} at the root.
  bool defer_p24 = false, defer_p25 = false;
  for (const PlanCandidate& c : space->plans) {
    if (c.expr->kind() != OpKind::kGeneralizedSelection) continue;
    std::string p = c.expr->pred().ToString();
    std::string g;
    for (const auto& grp : c.expr->groups()) {
      for (const auto& rel : grp) g += rel + " ";
    }
    if (p.find("r2.a = r4.a") != std::string::npos &&
        g.find("r1") != std::string::npos &&
        g.find("r2") != std::string::npos) {
      defer_p24 = true;
    }
    if (p.find("r2.b = r5.b") != std::string::npos &&
        g.find("r1") != std::string::npos &&
        g.find("r2") != std::string::npos) {
      defer_p25 = true;
    }
  }
  EXPECT_TRUE(defer_p24);
  EXPECT_TRUE(defer_p25);
}

TEST(Q4Test, EveryGeneralizedPlanIsExecutionEquivalent) {
  NodePtr q4 = BuildQ4();
  auto hor = BuildHypergraph(q4);
  ASSERT_TRUE(hor.ok());
  EnumOptions gen;
  gen.mode = EnumMode::kGeneralized;
  auto space = Enumerator(*hor, gen).Enumerate();
  ASSERT_TRUE(space.ok());
  EXPECT_GE(space->plans.size(), 4u);

  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    Catalog cat = MakeCatalog(seed, 5, 8, 4);
    auto ref = Execute(q4, cat);
    ASSERT_TRUE(ref.ok());
    for (const PlanCandidate& c : space->plans) {
      auto got = Execute(c.expr, cat);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(Relation::BagEquals(*ref, *got))
          << "seed " << seed << "\nplan: " << c.expr->ToString()
          << "\nexpected:\n" << ref->ToString() << "\ngot:\n"
          << got->ToString();
    }
  }
}

TEST(Q4Test, BaselinePlansAreExecutionEquivalentToo) {
  NodePtr q4 = BuildQ4();
  auto hor = BuildHypergraph(q4);
  ASSERT_TRUE(hor.ok());
  EnumOptions base;
  base.mode = EnumMode::kBaseline;
  auto space = Enumerator(*hor, base).Enumerate();
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  for (uint64_t seed : {7ull, 8ull}) {
    Catalog cat = MakeCatalog(seed, 5, 8, 4);
    auto ref = Execute(q4, cat);
    ASSERT_TRUE(ref.ok());
    for (const PlanCandidate& c : space->plans) {
      auto got = Execute(c.expr, cat);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(Relation::BagEquals(*ref, *got))
          << "plan: " << c.expr->ToString();
    }
  }
}

TEST(Q4Test, BaselineModeNeverDefersAtoms) {
  auto hor = BuildHypergraph(BuildQ4());
  ASSERT_TRUE(hor.ok());
  EnumOptions base;
  base.mode = EnumMode::kBaseline;
  auto space = Enumerator(*hor, base).Enumerate();
  ASSERT_TRUE(space.ok());
  for (const PlanCandidate& c : space->plans) {
    EXPECT_EQ(c.num_deferred, 0);
    EXPECT_NE(c.expr->kind(), OpKind::kGeneralizedSelection);
  }
}

TEST(Q4Test, AsWrittenShapeIsAmongEnumeratedPlans) {
  NodePtr q4 = BuildQ4();
  auto hor = BuildHypergraph(q4);
  ASSERT_TRUE(hor.ok());
  for (EnumMode mode : {EnumMode::kBaseline, EnumMode::kGeneralized}) {
    EnumOptions o;
    o.mode = mode;
    auto space = Enumerator(*hor, o).Enumerate();
    ASSERT_TRUE(space.ok());
    bool found = false;
    for (const PlanCandidate& c : space->plans) {
      if (c.expr->ToString() == q4->ToString()) found = true;
    }
    EXPECT_TRUE(found) << "mode " << EnumModeName(mode);
  }
}

}  // namespace
}  // namespace gsopt
