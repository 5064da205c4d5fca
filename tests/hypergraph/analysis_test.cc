// Unit tests for the hypergraph analysis primitives on hand-built graphs:
// path reachability, preserved sides with null-region blocking, away-side
// computation, operator-above relation, units/qualifiers. The table tests
// check the side regions the constructor caches against the paper's path
// notion on Fig. 1 (Q4), Q5, Q6 and random general-class queries.
#include "hypergraph/analysis.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "algebra/normalize.h"
#include "algebra/simplify.h"
#include "base/rng.h"
#include "enumerate/random_query.h"
#include "hypergraph/build.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/querygraph.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Predicate P2(const std::string& a, const std::string& b) {
  return Predicate(MakeAtom(a, "x", CmpOp::kEq, b, "x"));
}

// r1 ->A r2 ->B r3 (simple chain of LOJs).
struct Chain3 {
  Hypergraph h;
  int r1, r2, r3, A, B;
  Chain3() {
    r1 = h.AddRelation("r1");
    r2 = h.AddRelation("r2");
    r3 = h.AddRelation("r3");
    // Tree: r1 LOJ_A (r2 LOJ_B r3); operand subtrees passed explicitly.
    B = *h.AddEdge(EdgeKind::kDirected, RelSet::Single(r2),
                   RelSet::Single(r3), P2("r2", "r3"));
    A = *h.AddEdge(EdgeKind::kDirected, RelSet::Single(r1),
                   RelSet::Single(r2), P2("r1", "r2"), RelSet::Single(r1),
                   RelSet({r2, r3}));
  }
};

TEST(AnalysisTest, PathExistsRespectsBans) {
  Chain3 c;
  HypergraphAnalysis an(c.h);
  EXPECT_TRUE(an.PathExists(c.r1, RelSet::Single(c.r3), RelSet()));
  EXPECT_FALSE(
      an.PathExists(c.r1, RelSet::Single(c.r3), RelSet::Single(c.B)));
  EXPECT_TRUE(an.PathExists(c.r2, RelSet::Single(c.r2), RelSet()));
}

TEST(AnalysisTest, ChainPreservedSets) {
  Chain3 c;
  HypergraphAnalysis an(c.h);
  // pres(A) = {r1}: r2, r3 are on the null side.
  EXPECT_EQ(an.Pres(c.A), RelSet::Single(c.r1));
  // pres(B) = {r1, r2}: r1 attaches through A, whose predicate does not
  // touch B's null region {r3}.
  EXPECT_EQ(an.Pres(c.B), RelSet({c.r1, c.r2}));
  EXPECT_TRUE(an.Conf(c.A).empty());
  EXPECT_TRUE(an.Conf(c.B).empty());
}

TEST(AnalysisTest, NullRegionBlocksRiding) {
  // r1 ->A r3;  B = <{r1,r2-style}> : edge whose predicate touches A's
  // null side blocks r2 from riding with r1.
  Hypergraph h;
  int r1 = h.AddRelation("r1");
  int r2 = h.AddRelation("r2");
  int r3 = h.AddRelation("r3");
  int A = *h.AddEdge(EdgeKind::kDirected, RelSet::Single(r1),
                     RelSet::Single(r3), P2("r1", "r3"));
  // B connects {r1,r3} with r2 and its predicate references r3 (A's null
  // region) -- r2 must NOT be in pres(A).
  Predicate pb({MakeAtom("r2", "x", CmpOp::kEq, "r1", "x"),
                MakeAtom("r2", "y", CmpOp::kLe, "r3", "y")});
  RelSet v1({r1, r3});
  int B = *h.AddEdge(EdgeKind::kDirected, v1, RelSet::Single(r2), pb);
  (void)B;
  HypergraphAnalysis an(h);
  EXPECT_EQ(an.Pres(A), RelSet::Single(r1));
}

TEST(AnalysisTest, RidingAllowedWhenEdgeAvoidsNullRegion) {
  // Same shape but B's predicate only touches r1: r2 rides with r1.
  Hypergraph h;
  int r1 = h.AddRelation("r1");
  int r2 = h.AddRelation("r2");
  int r3 = h.AddRelation("r3");
  int A = *h.AddEdge(EdgeKind::kDirected, RelSet::Single(r1),
                     RelSet::Single(r3), P2("r1", "r3"));
  // Tree: (r1 LOJ_A r3) LOJ_B r2 -- B's left operand subtree is {r1,r3}.
  int B = *h.AddEdge(EdgeKind::kDirected, RelSet({r1}), RelSet::Single(r2),
                     P2("r1", "r2"), RelSet({r1, r3}), RelSet::Single(r2));
  (void)B;
  HypergraphAnalysis an(h);
  EXPECT_EQ(an.Pres(A), RelSet({r1, r2}));
}

TEST(AnalysisTest, PresAwayPicksOppositeSide) {
  // r1 <->F r2 ->B r3: away from B, F preserves {r1}.
  Hypergraph h;
  int r1 = h.AddRelation("r1");
  int r2 = h.AddRelation("r2");
  int r3 = h.AddRelation("r3");
  int B = *h.AddEdge(EdgeKind::kDirected, RelSet::Single(r2),
                     RelSet::Single(r3), P2("r2", "r3"));
  // Tree: r1 FOJ_F (r2 LOJ_B r3).
  int F = *h.AddEdge(EdgeKind::kBidirected, RelSet::Single(r1),
                     RelSet::Single(r2), P2("r1", "r2"), RelSet::Single(r1),
                     RelSet({r2, r3}));
  HypergraphAnalysis an(h);
  EXPECT_EQ(an.PresAway(F, B), RelSet::Single(r1));
  // For a directed edge, PresAway == Pres regardless of the away edge.
  EXPECT_EQ(an.PresAway(B, F), an.Pres(B));
}

TEST(AnalysisTest, OperatorAboveRelation) {
  Chain3 c;
  HypergraphAnalysis an(c.h);
  // A's null side region contains B entirely: A's operator is above B's.
  EXPECT_TRUE(an.OperatorAbove(c.A, c.B));
  EXPECT_FALSE(an.OperatorAbove(c.B, c.A));
  EXPECT_FALSE(an.OperatorAbove(c.A, c.A));
}

TEST(AnalysisTest, ConfFindsFojThroughJoins) {
  // join J(r1-r2), FOJ F(r2-r3): conf(J) = {F}.
  Hypergraph h;
  int r1 = h.AddRelation("r1");
  int r2 = h.AddRelation("r2");
  int r3 = h.AddRelation("r3");
  int J = *h.AddEdge(EdgeKind::kUndirected, RelSet::Single(r1),
                     RelSet::Single(r2), P2("r1", "r2"));
  // Tree: (r1 J r2) FOJ_F r3.
  int F = *h.AddEdge(EdgeKind::kBidirected, RelSet::Single(r2),
                     RelSet::Single(r3), P2("r2", "r3"), RelSet({r1, r2}),
                     RelSet::Single(r3));
  HypergraphAnalysis an(h);
  EXPECT_EQ(an.Conf(J), std::vector<int>{F});
  EXPECT_TRUE(an.Ccoj(J).empty());
  // Deferring a conjunct of J: compensate with F's away side {r3}... and
  // the side containing J is {r1,r2}: groups are the two F sides' away
  // parts -- here PresAway(F, J) = {r3}.
  std::vector<RelSet> groups = an.DeferredGroups(J);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], RelSet::Single(r3));
}

TEST(HypergraphUnitsTest, QualifierLookupAndPreservedExpansion) {
  Hypergraph h;
  int u = h.AddUnit("#unit0", {"r1", "V1"});
  int r2 = h.AddRelation("r2");
  EXPECT_EQ(h.RelId("r1"), u);
  EXPECT_EQ(h.RelId("V1"), u);
  EXPECT_EQ(h.RelId("#unit0"), u);
  EXPECT_EQ(h.RelId("r2"), r2);
  Predicate p(MakeAtom("V1", "c", CmpOp::kEq, "r2", "x"));
  int e = *h.AddEdge(EdgeKind::kDirected, RelSet::Single(u),
                     RelSet::Single(r2), p);
  (void)e;
  HypergraphAnalysis an(h);
  auto groups = an.ToPreservedGroups({RelSet::Single(u)});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].count("r1"), 1u);
  EXPECT_EQ(groups[0].count("V1"), 1u);
}

TEST(HypergraphTest, AddEdgeValidation) {
  Hypergraph h;
  int r1 = h.AddRelation("r1");
  int r2 = h.AddRelation("r2");
  // Empty hypernode.
  EXPECT_FALSE(
      h.AddEdge(EdgeKind::kUndirected, RelSet(), RelSet::Single(r2),
                P2("r1", "r2"))
          .ok());
  // Overlapping hypernodes.
  EXPECT_FALSE(h.AddEdge(EdgeKind::kUndirected, RelSet({r1, r2}),
                         RelSet::Single(r2), P2("r1", "r2"))
                   .ok());
  // Atom escaping the endpoints.
  h.AddRelation("r3");
  EXPECT_FALSE(h.AddEdge(EdgeKind::kUndirected, RelSet::Single(r1),
                         RelSet::Single(r2), P2("r1", "r3"))
                   .ok());
  // Unknown relation in predicate.
  EXPECT_FALSE(h.AddEdge(EdgeKind::kUndirected, RelSet::Single(r1),
                         RelSet::Single(r2), P2("r1", "zz"))
                   .ok());
}

TEST(HypergraphTest, TruePredicateEdgeGetsTautologyAtom) {
  Hypergraph h;
  int r1 = h.AddRelation("r1");
  int r2 = h.AddRelation("r2");
  auto e = h.AddEdge(EdgeKind::kDirected, RelSet::Single(r1),
                     RelSet::Single(r2), Predicate::True());
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(h.edge(*e).atoms.size(), 1u);
  EXPECT_EQ(h.edge(*e).atoms[0].span, RelSet({r1, r2}));
  EXPECT_TRUE(h.Connected(RelSet({r1, r2})));
}

// --- cached tables vs the paper's path notion ------------------------------

// {r : a path from r reaches `targets` without crossing `banned`}.
RelSet Reaching(const HypergraphAnalysis& an, RelSet targets, RelSet banned) {
  RelSet out;
  for (int r = 0; r < an.hypergraph().NumRelations(); ++r) {
    if (an.PathExists(r, targets, banned)) out.Add(r);
  }
  return out;
}

// SideRegion must be the reaching set of each side's hypernode with the
// edge banned, and OperatorAbove must be its definition over those sets:
// `inner`'s endpoints lie inside one of `outer`'s null-supplied sides.
void ExpectTablesMatchPaths(const Hypergraph& h, const std::string& label) {
  HypergraphAnalysis an(h);
  // side[e][0] / side[e][1]: the relations reaching e's v1 / v2 hypernode.
  std::vector<std::array<RelSet, 2>> side;
  for (const Hyperedge& e : h.edges()) {
    RelSet ban = RelSet::Single(e.id);
    side.push_back({Reaching(an, e.v1, ban), Reaching(an, e.v2, ban)});
    EXPECT_EQ(an.SideRegion(e.id, /*side1=*/true), side[e.id][0])
        << label << " edge " << e.id;
    EXPECT_EQ(an.SideRegion(e.id, /*side1=*/false), side[e.id][1])
        << label << " edge " << e.id;
  }
  for (const Hyperedge& o : h.edges()) {
    for (const Hyperedge& i : h.edges()) {
      RelSet eps = i.Endpoints();
      bool above = false;
      if (o.id != i.id && o.kind == EdgeKind::kDirected) {
        above = side[o.id][1].ContainsAll(eps);
      } else if (o.id != i.id && o.kind == EdgeKind::kBidirected) {
        above = side[o.id][0].ContainsAll(eps) ||
                side[o.id][1].ContainsAll(eps);
      }
      EXPECT_EQ(an.OperatorAbove(o.id, i.id), above)
          << label << " outer " << o.id << " inner " << i.id;
    }
  }
}

Predicate Eq(const std::string& r1, const std::string& c1,
             const std::string& r2, const std::string& c2) {
  return Predicate(MakeAtom(r1, c1, CmpOp::kEq, r2, c2));
}

TEST(AnalysisTablesTest, PaperQueriesMatchPathSearch) {
  // Fig. 1 is Q4's hypergraph:
  // Q4 = r1 ->p12 (r2 ->p24^p25 ((r4 JOIN_p45 r5) JOIN_p35 r3)).
  NodePtr r453 = Node::Join(
      Node::Join(Node::Leaf("r4"), Node::Leaf("r5"), Eq("r4", "c", "r5", "c")),
      Node::Leaf("r3"), Eq("r5", "a", "r3", "a"));
  NodePtr q4 = Node::LeftOuterJoin(
      Node::Leaf("r1"),
      Node::LeftOuterJoin(Node::Leaf("r2"), r453,
                          Predicate::And(Eq("r2", "a", "r4", "a"),
                                         Eq("r2", "b", "r5", "b"))),
      Eq("r1", "a", "r2", "a"));
  // Q5 = (r1 <->p12^p13 (r2 ->p23 r3)) ->p24 (r4 ->p45^p46 (r5 JOIN r6)).
  NodePtr q5 = Node::LeftOuterJoin(
      Node::FullOuterJoin(
          Node::Leaf("r1"),
          Node::LeftOuterJoin(Node::Leaf("r2"), Node::Leaf("r3"),
                              Eq("r2", "c", "r3", "c")),
          Predicate::And(Eq("r1", "a", "r2", "a"), Eq("r1", "b", "r3", "b"))),
      Node::LeftOuterJoin(
          Node::Leaf("r4"),
          Node::Join(Node::Leaf("r5"), Node::Leaf("r6"),
                     Eq("r5", "c", "r6", "c")),
          Predicate::And(Eq("r4", "a", "r5", "a"), Eq("r4", "b", "r6", "b"))),
      Eq("r2", "b", "r4", "c"));
  // Q6 = r1 <->p12^p14 (r2 ->p23^p24 (r3 ->p34 r4)).
  NodePtr q6 = Node::FullOuterJoin(
      Node::Leaf("r1"),
      Node::LeftOuterJoin(
          Node::Leaf("r2"),
          Node::LeftOuterJoin(Node::Leaf("r3"), Node::Leaf("r4"),
                              Eq("r3", "a", "r4", "b")),
          Predicate::And(Eq("r2", "b", "r3", "b"), Eq("r2", "c", "r4", "a"))),
      Predicate::And(Eq("r1", "a", "r2", "a"), Eq("r1", "c", "r4", "c")));
  for (const auto& [label, q] :
       {std::pair<std::string, NodePtr>{"Q4", q4}, {"Q5", q5}, {"Q6", q6}}) {
    auto h = BuildHypergraph(q);
    ASSERT_TRUE(h.ok()) << label << ": " << h.status().ToString();
    ExpectTablesMatchPaths(*h, label);
  }
  ExpectTablesMatchPaths(Chain3().h, "chain");
}

TEST(AnalysisTablesTest, RandomGeneralClassQueriesMatchPathSearch) {
  Catalog cat;
  Rng drng(5);
  RandomRelationOptions dopt;
  dopt.num_rows = 4;
  AddRandomTables(7, dopt, &drng, &cat);
  Rng rng(41);
  int checked = 0;
  for (int k = 0; k < 200 && checked < 50; ++k) {
    RandomQueryOptions qo;
    qo.num_rels = 4 + k % 4;
    qo.loj_prob = 0.35;
    qo.foj_prob = 0.15;
    qo.extra_atom_prob = 0.5;
    qo.view_prob = 0.5;
    NodePtr q = MakeGeneralRandomQuery(qo, &rng);
    auto nq = NormalizeForReordering(SimplifyOuterJoins(q), cat);
    if (!nq.ok()) continue;
    auto qg = BuildQueryGraph(nq->join_tree, cat);
    if (!qg.ok() || qg->hypergraph.NumEdges() < 2) continue;
    ExpectTablesMatchPaths(qg->hypergraph, "random " + std::to_string(k));
    ++checked;
  }
  EXPECT_EQ(checked, 50);
}

// Query trees give near-acyclic hypergraphs, where a relation is reached
// by essentially one path. Random edges over few relations give cycles
// and shared hypernodes, where which edges a path has used decides what
// it can still reach.
TEST(AnalysisTablesTest, RandomCyclicHypergraphsMatchPathSearch) {
  Rng rng(43);
  for (int k = 0; k < 100; ++k) {
    Hypergraph h;
    int n = 4 + k % 4;
    for (int r = 0; r < n; ++r) h.AddRelation("r" + std::to_string(r + 1));
    int edges = n + static_cast<int>(rng.Uniform(0, 4));
    for (int i = 0; i < edges; ++i) {
      RelSet v1, v2;
      for (int r = 0; r < n; ++r) {
        int64_t side = rng.Uniform(0, 2 * n - 1);
        if (side == 0) v1.Add(r);
        if (side == 1) v2.Add(r);
      }
      if (v1.Empty()) v1.Add(static_cast<int>(rng.Uniform(0, n - 1)));
      if (v2.Empty() || v2.Intersects(v1)) {
        v2 = RelSet::FirstN(n).Minus(v1);
        while (v2.Count() > 1) v2.Remove(v2.First());
      }
      if (v2.Empty()) continue;
      EdgeKind kind = static_cast<EdgeKind>(rng.Uniform(0, 2));
      std::string a = "r" + std::to_string(v1.First() + 1);
      std::string b = "r" + std::to_string(v2.First() + 1);
      ASSERT_TRUE(h.AddEdge(kind, v1, v2, P2(a, b)).ok());
    }
    ExpectTablesMatchPaths(h, "cyclic " + std::to_string(k));
  }
}

}  // namespace
}  // namespace gsopt
