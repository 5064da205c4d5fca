// Experiments Q5/Q6 (DESIGN.md): enumeration of the paper's §3 multi-
// complex-predicate examples -- every emitted plan must match the
// as-written result, the GS-compensated families the paper displays must
// be present, and dependent predicates must break correctly.
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

// Q5 = (r1 <->p12^p13 (r2 ->p23 r3)) ->p24 (r4 ->p45^p46 (r5 JOIN_p56 r6))
NodePtr BuildQ5() {
  Predicate p12_13 = Predicate::And(P("r1", "a", "r2", "a"),
                                    P("r1", "b", "r3", "b"));
  Predicate p45_46 = Predicate::And(P("r4", "a", "r5", "a"),
                                    P("r4", "b", "r6", "b"));
  NodePtr left = Node::FullOuterJoin(
      Node::Leaf("r1"),
      Node::LeftOuterJoin(Node::Leaf("r2"), Node::Leaf("r3"),
                          P("r2", "c", "r3", "c")),
      p12_13);
  NodePtr right = Node::LeftOuterJoin(
      Node::Leaf("r4"),
      Node::Join(Node::Leaf("r5"), Node::Leaf("r6"), P("r5", "c", "r6", "c")),
      p45_46);
  return Node::LeftOuterJoin(left, right, P("r2", "b", "r4", "c"));
}

// Q6 = r1 <->p12^p14 (r2 ->p23^p24 (r3 ->p34 r4))
NodePtr BuildQ6() {
  Predicate p12_14 = Predicate::And(P("r1", "a", "r2", "a"),
                                    P("r1", "c", "r4", "c"));
  Predicate p23_24 = Predicate::And(P("r2", "b", "r3", "b"),
                                    P("r2", "c", "r4", "a"));
  NodePtr r34 = Node::LeftOuterJoin(Node::Leaf("r3"), Node::Leaf("r4"),
                                    P("r3", "a", "r4", "b"));
  NodePtr r234 = Node::LeftOuterJoin(Node::Leaf("r2"), r34, p23_24);
  return Node::FullOuterJoin(Node::Leaf("r1"), r234, p12_14);
}

Catalog MakeCatalog(uint64_t seed, int n) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 6;
  opt.domain = 3;
  opt.null_fraction = 0.1;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

void CheckAllPlansEquivalent(const NodePtr& query, int num_rels,
                             std::vector<uint64_t> seeds,
                             size_t* num_plans = nullptr) {
  auto hor = BuildHypergraph(query);
  ASSERT_TRUE(hor.ok()) << hor.status().ToString();
  EnumOptions opts;
  opts.mode = EnumMode::kGeneralized;
  auto space = Enumerator(*hor, opts).Enumerate();
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  if (num_plans != nullptr) *num_plans = space->plans.size();
  for (uint64_t seed : seeds) {
    Catalog cat = MakeCatalog(seed, num_rels);
    auto ref = Execute(query, cat);
    ASSERT_TRUE(ref.ok());
    for (const PlanCandidate& c : space->plans) {
      auto got = Execute(c.expr, cat);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(Relation::BagEquals(*ref, *got))
          << "seed " << seed << "\nquery: " << query->ToString()
          << "\nplan: " << c.expr->ToString();
    }
  }
}

TEST(Q5Test, AllPlansEquivalent) {
  size_t n = 0;
  CheckAllPlansEquivalent(BuildQ5(), 6, {41, 42}, &n);
  // Two independent complex predicates: the space must include break-ups
  // of either and both.
  EXPECT_GT(n, 8u);
}

TEST(Q5Test, BothComplexPredicatesBreakIndependently) {
  auto hor = BuildHypergraph(BuildQ5());
  ASSERT_TRUE(hor.ok());
  EnumOptions opts;
  opts.mode = EnumMode::kGeneralized;
  auto space = Enumerator(*hor, opts).Enumerate();
  ASSERT_TRUE(space.ok());
  bool p13_deferred = false, p46_deferred = false, both = false;
  for (const PlanCandidate& c : space->plans) {
    std::string s = c.expr->ToString();
    bool d13 = s.find("GS[r1.b = r3.b") != std::string::npos;
    bool d46 = s.find("GS[r4.b = r6.b") != std::string::npos;
    p13_deferred |= d13;
    p46_deferred |= d46;
    both |= (d13 && d46);
  }
  EXPECT_TRUE(p13_deferred);
  EXPECT_TRUE(p46_deferred);
  EXPECT_TRUE(both);  // the paper's stacked sigma* sigma* family
}

TEST(Q6Test, AllPlansEquivalent) {
  size_t n = 0;
  CheckAllPlansEquivalent(BuildQ6(), 4, {51, 52, 53}, &n);
  EXPECT_GE(n, 4u);
}

TEST(Q6Test, DependentPredicatesProduceStackedCompensations) {
  auto hor = BuildHypergraph(BuildQ6());
  ASSERT_TRUE(hor.ok());
  EnumOptions opts;
  opts.mode = EnumMode::kGeneralized;
  auto space = Enumerator(*hor, opts).Enumerate();
  ASSERT_TRUE(space.ok());
  // The paper's six-expression family breaks BOTH P1 and P2: at least one
  // plan must carry two stacked generalized selections, with the inner
  // edge's compensation below the outer edge's (h2's GS inside h1's GS).
  bool stacked = false;
  for (const PlanCandidate& c : space->plans) {
    const Node* n = c.expr.get();
    if (n->kind() == OpKind::kGeneralizedSelection &&
        n->left()->kind() == OpKind::kGeneralizedSelection) {
      stacked = true;
      // Outer GS belongs to the FOJ edge (references r1).
      EXPECT_NE(n->pred().ToString().find("r1."), std::string::npos);
    }
  }
  EXPECT_TRUE(stacked);
}

TEST(Q6Test, BaselineSubsetOfGeneralized) {
  auto hor = BuildHypergraph(BuildQ6());
  ASSERT_TRUE(hor.ok());
  EnumOptions base;
  base.mode = EnumMode::kBaseline;
  EnumOptions gen;
  gen.mode = EnumMode::kGeneralized;
  auto nb = Enumerator(*hor, base).CountAssociationTrees();
  auto ng = Enumerator(*hor, gen).CountAssociationTrees();
  ASSERT_TRUE(nb.ok());
  ASSERT_TRUE(ng.ok());
  EXPECT_GE(*ng, *nb);
}

TEST(PartialKeepsTest, DisablingPartialKeepsShrinksSpace) {
  auto hor = BuildHypergraph(BuildQ6());
  ASSERT_TRUE(hor.ok());
  EnumOptions with;
  with.mode = EnumMode::kGeneralized;
  with.enumerate_partial_keeps = true;
  EnumOptions without;
  without.mode = EnumMode::kGeneralized;
  without.enumerate_partial_keeps = false;
  auto pw = Enumerator(*hor, with).Enumerate();
  auto po = Enumerator(*hor, without).Enumerate();
  ASSERT_TRUE(pw.ok());
  ASSERT_TRUE(po.ok());
  EXPECT_GT(pw->plans.size(), po->plans.size());
}

TEST(DpPruningTest, PrunedFrontierContainsAMinimalCostPlan) {
  NodePtr q6 = BuildQ6();
  auto hor = BuildHypergraph(q6);
  ASSERT_TRUE(hor.ok());
  // Cost = expression size (deterministic, catalog-free).
  auto cost = [](const NodePtr& n) { return static_cast<double>(n->NumOps()); };
  EnumOptions full;
  full.mode = EnumMode::kGeneralized;
  EnumOptions pruned;
  pruned.mode = EnumMode::kGeneralized;
  pruned.cost_fn = cost;
  auto pf = Enumerator(*hor, full).Enumerate();
  auto pp = Enumerator(*hor, pruned).Enumerate();
  ASSERT_TRUE(pf.ok());
  ASSERT_TRUE(pp.ok());
  EXPECT_LE(pp->plans.size(), pf->plans.size());
  double best_full = 1e18, best_pruned = 1e18;
  for (const auto& c : pf->plans) best_full = std::min(best_full, cost(c.expr));
  for (const auto& c : pp->plans) {
    best_pruned = std::min(best_pruned, cost(c.expr));
  }
  EXPECT_EQ(best_full, best_pruned);
}

}  // namespace
}  // namespace gsopt
