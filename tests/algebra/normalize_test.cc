// Unit tests for the normalization wrapper calculus: selection push-down
// (preserved sides, inner-join predicates, and what stops it), selection
// and GS hoisting across each operator role, group-by crossing (preserved
// and null-supplied sides), opaque-unit fallbacks -- each rule checked for
// semantic preservation by execution.
#include "algebra/normalize.h"

#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "algebra/schema_infer.h"
#include "algebra/simplify.h"
#include "base/rng.h"
#include "core/plan_cache.h"
#include "hypergraph/querygraph.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

Catalog MakeCatalog(uint64_t seed, int n) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 10;
  opt.domain = 3;
  opt.null_fraction = 0.15;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

Predicate P(const std::string& a, const std::string& b) {
  return Predicate(MakeAtom(a, "a", CmpOp::kEq, b, "a"));
}

Predicate C(const std::string& rel, const std::string& col, CmpOp op,
            int64_t v) {
  return Predicate(MakeConstAtom(rel, col, op, I(v)));
}

// The filter the normalized tree carries directly on base relation
// `table` ("" when it carries none).
std::string LeafFilter(const NodePtr& n, const std::string& table) {
  if (n->kind() == OpKind::kSelect && n->left()->kind() == OpKind::kLeaf &&
      n->left()->table() == table) {
    return n->pred().ToString();
  }
  for (const NodePtr& c : {n->left(), n->right()}) {
    if (c == nullptr) continue;
    std::string f = LeafFilter(c, table);
    if (!f.empty()) return f;
  }
  return "";
}

// Normalize, rebuild via ApplyWrappers, and require equivalence.
void CheckRoundTrip(const NodePtr& q, const Catalog& cat) {
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  auto rebuilt = ApplyWrappers(*nq, nq->join_tree, cat);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto eq = ExecutionEquivalent(q, *rebuilt, cat);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq) << "query: " << q->ToString()
                   << "\nrebuilt: " << (*rebuilt)->ToString();
}

TEST(NormalizeTest, LeafAndFilteredLeafStayInTree) {
  Catalog cat = MakeCatalog(1, 2);
  NodePtr filtered = Node::Select(
      Node::Leaf("r1"), Predicate(MakeConstAtom("r1", "a", CmpOp::kGe, I(1))));
  NodePtr q = Node::Join(filtered, Node::Leaf("r2"), P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());  // filter rides with the leaf
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, SelectionHoistsAcrossPreservedSide) {
  // sigma over a join subtree below the preserved side of a LOJ. The
  // conjunct spans both sides of an outer join, so it cannot sink.
  NodePtr inner = Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                                      P("r1", "r2"));
  NodePtr filtered = Node::Select(
      inner, Predicate(MakeAtom("r1", "b", CmpOp::kGe, "r2", "b")));
  Catalog cat3 = MakeCatalog(2, 3);
  NodePtr q = Node::LeftOuterJoin(filtered, Node::Leaf("r3"),
                                  P("r2", "r3"));
  auto nq = NormalizeForReordering(q, cat3);
  ASSERT_TRUE(nq.ok());
  ASSERT_EQ(nq->wrappers.size(), 1u);
  EXPECT_TRUE(nq->wrappers[0].groups.empty());  // stays a plain selection
  CheckRoundTrip(q, cat3);
}

TEST(NormalizeTest, SelectionBecomesGsAcrossNullSide) {
  Catalog cat = MakeCatalog(3, 3);
  NodePtr inner = Node::LeftOuterJoin(Node::Leaf("r2"), Node::Leaf("r3"),
                                      P("r2", "r3"));
  NodePtr filtered = Node::Select(
      inner, Predicate(MakeAtom("r2", "b", CmpOp::kGe, "r3", "b")));
  // Filtered subtree on the null-supplying side, with a conjunct spanning
  // an outer join (so it cannot sink): must hoist as a GS preserving the
  // other side.
  NodePtr q = Node::LeftOuterJoin(Node::Leaf("r1"), filtered, P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  ASSERT_EQ(nq->wrappers.size(), 1u);
  ASSERT_EQ(nq->wrappers[0].groups.size(), 1u);
  EXPECT_EQ(nq->wrappers[0].groups[0].count("r1"), 1u);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushSinksPreservedSideFilterThroughTwoLojs) {
  Catalog cat = MakeCatalog(11, 3);
  NodePtr q = Node::Select(
      Node::LeftOuterJoin(
          Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                              P("r1", "r2")),
          Node::Leaf("r3"), P("r2", "r3")),
      C("r1", "b", CmpOp::kGe, 1));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());
  EXPECT_EQ(LeafFilter(nq->join_tree, "r1"), "r1.b >= 1");
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushSinksSubtreeFilterBelowPreservedSide) {
  // SelectionHoistsAcrossPreservedSide's original input: the filter on an
  // inner-join subtree reaches its leaf, leaving nothing to hoist.
  Catalog cat = MakeCatalog(2, 3);
  NodePtr inner = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                             P("r1", "r2"));
  NodePtr filtered = Node::Select(inner, C("r1", "b", CmpOp::kGe, 1));
  NodePtr q = Node::LeftOuterJoin(filtered, Node::Leaf("r3"), P("r2", "r3"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());
  EXPECT_EQ(LeafFilter(nq->join_tree, "r1"), "r1.b >= 1");
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushSinksFilterWithinNullSuppliedSubtree) {
  // SelectionBecomesGsAcrossNullSide's original input: a selection written
  // inside the null-supplying side sinks within that side (it never
  // crosses the outer join), so no compensating GS is needed.
  Catalog cat = MakeCatalog(3, 3);
  NodePtr inner = Node::Join(Node::Leaf("r2"), Node::Leaf("r3"),
                             P("r2", "r3"));
  NodePtr filtered = Node::Select(inner, C("r2", "b", CmpOp::kGe, 1));
  NodePtr q = Node::LeftOuterJoin(Node::Leaf("r1"), filtered, P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());
  EXPECT_EQ(LeafFilter(nq->join_tree, "r2"), "r2.b >= 1");
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushLeavesIsNullOnNullSuppliedSideAsGs) {
  Catalog cat = MakeCatalog(12, 2);
  NodePtr loj = Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                                    P("r1", "r2"));
  // Null-tolerant: simplification keeps the LOJ and the push must not
  // enter its null-supplying side.
  NodePtr q = SimplifyOuterJoins(
      Node::Select(loj, Predicate(MakeIsNullAtom("r2", "b", false))));
  ASSERT_EQ(q->left()->kind(), OpKind::kLeftOuterJoin);
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  ASSERT_EQ(nq->wrappers.size(), 1u);
  EXPECT_EQ(nq->wrappers[0].pred.ToString(), "r2.b IS NULL");
  EXPECT_EQ(LeafFilter(nq->join_tree, "r2"), "");
  CheckRoundTrip(q, cat);
  // Null-intolerant: simplification turns the LOJ inner, and the conjunct
  // then reaches its leaf.
  NodePtr q2 = SimplifyOuterJoins(
      Node::Select(loj, C("r2", "b", CmpOp::kGe, 1)));
  auto nq2 = NormalizeForReordering(q2, cat);
  ASSERT_TRUE(nq2.ok());
  EXPECT_TRUE(nq2->wrappers.empty());
  EXPECT_EQ(LeafFilter(nq2->join_tree, "r2"), "r2.b >= 1");
  CheckRoundTrip(q2, cat);
}

TEST(NormalizeTest, PushStopsAtFullOuterJoin) {
  Catalog cat = MakeCatalog(13, 2);
  NodePtr q = Node::Select(
      Node::FullOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
      C("r1", "b", CmpOp::kGe, 1));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  ASSERT_EQ(nq->wrappers.size(), 1u);
  EXPECT_TRUE(nq->wrappers[0].groups.empty());
  EXPECT_EQ(LeafFilter(nq->join_tree, "r1"), "");
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushAndsSpanningConjunctIntoInnerJoin) {
  Catalog cat = MakeCatalog(14, 3);
  NodePtr q = Node::Select(
      Node::LeftOuterJoin(
          Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
          Node::Leaf("r3"), P("r2", "r3")),
      Predicate(MakeAtom("r1", "b", CmpOp::kLe, "r2", "c")));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());
  const NodePtr& inner = nq->join_tree->left();
  ASSERT_EQ(inner->kind(), OpKind::kInnerJoin);
  EXPECT_EQ(inner->pred().ToString(), "r1.a = r2.a AND r1.b <= r2.c");
  // The conjunct is now a hyperedge atom of the query graph.
  auto qg = BuildQueryGraph(nq->join_tree, cat);
  ASSERT_TRUE(qg.ok());
  EXPECT_EQ(qg->hypergraph.NumRelations(), 3);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushKeepsAggregateConjunctAboveItsView) {
  Catalog cat = MakeCatalog(15, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(Node::Leaf("r2"), spec);
  Predicate where;
  where.AddAtom(MakeConstAtom("V", "c", CmpOp::kGt, I(1)));
  where.AddAtom(MakeConstAtom("r1", "b", CmpOp::kGe, I(1)));
  NodePtr q = Node::Select(Node::Join(view, Node::Leaf("r1"), P("r2", "r1")),
                           where);
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_EQ(LeafFilter(nq->join_tree, "r1"), "r1.b >= 1");
  // V.c filters above the pulled-up aggregation, never below it.
  int groupby_at = -1, agg_filter_at = -1;
  for (size_t i = 0; i < nq->wrappers.size(); ++i) {
    const Wrapper& w = nq->wrappers[i];
    if (w.kind == Wrapper::Kind::kGroupBy) groupby_at = static_cast<int>(i);
    if (w.kind == Wrapper::Kind::kGeneralizedSelection &&
        w.pred.ToString() == "V.c > 1") {
      agg_filter_at = static_cast<int>(i);
    }
  }
  ASSERT_GE(groupby_at, 0);
  EXPECT_GT(agg_filter_at, groupby_at);
  EXPECT_EQ(LeafFilter(nq->join_tree, "r2"), "");
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, PushMovesParamSlotToLeafAndKeepsFingerprint) {
  Catalog cat = MakeCatalog(16, 3);
  auto query = [](int64_t pivot) {
    return Node::Select(
        Node::LeftOuterJoin(
            Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                                P("r1", "r2")),
            Node::Leaf("r3"), P("r2", "r3")),
        C("r1", "b", CmpOp::kLe, pivot));
  };
  ParameterizedQuery a = ParameterizeQuery(query(1));
  ParameterizedQuery b = ParameterizeQuery(query(4));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  // The template's slot rides to r1 like any scalar...
  auto nq = NormalizeForReordering(a.tree, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());
  std::string filter = LeafFilter(nq->join_tree, "r1");
  EXPECT_EQ(filter.rfind("r1.b <= $", 0), 0u) << filter;
  // ...and re-instantiates to the literal query's answer.
  auto rebuilt = ApplyWrappers(*nq, nq->join_tree, cat);
  ASSERT_TRUE(rebuilt.ok());
  auto bound = SubstituteParams(*rebuilt, b.lifted);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto eq = ExecutionEquivalent(query(4), *bound, cat);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(NormalizeTest, SelectionAcrossFullOuterJoin) {
  Catalog cat = MakeCatalog(4, 3);
  NodePtr inner = Node::Join(Node::Leaf("r2"), Node::Leaf("r3"),
                             P("r2", "r3"));
  NodePtr filtered = Node::Select(
      inner, Predicate(MakeConstAtom("r3", "c", CmpOp::kNe, I(0))));
  NodePtr q = Node::FullOuterJoin(Node::Leaf("r1"), filtered, P("r1", "r2"));
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, GroupByPreservedSidePullsThroughLoj) {
  Catalog cat = MakeCatalog(5, 3);
  NodePtr base = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                            P("r1", "r2"));
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "b"}, Attribute{"r2", "b"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCount;
  agg.input = Scalar::Column("r1", "c");
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(base, spec);
  Predicate p;
  p.AddAtom(MakeAtom("r1", "b", CmpOp::kEq, "r3", "b"));
  p.AddAtom(MakeAtom("r3", "a", CmpOp::kLe, "V", "c"));  // agg-referencing
  NodePtr q = Node::LeftOuterJoin(view, Node::Leaf("r3"), p);

  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  // All three relations reorderable; GP wrapper followed by a GS whose
  // preserved group carries the view side plus the aggregate qualifier.
  EXPECT_EQ(nq->join_tree->BaseRels().size(), 3u);
  bool gs_with_agg_rel = false;
  for (const Wrapper& w : nq->wrappers) {
    if (w.kind == Wrapper::Kind::kGeneralizedSelection) {
      for (const auto& g : w.groups) {
        if (g.count("V")) gs_with_agg_rel = true;
      }
    }
  }
  EXPECT_TRUE(gs_with_agg_rel);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, GroupByNullSideAddsPresenceGuardAndDropColumn) {
  Catalog cat = MakeCatalog(6, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(Node::Leaf("r2"), spec);
  Predicate p;
  p.AddAtom(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  p.AddAtom(MakeAtom("r1", "b", CmpOp::kLt, "V", "c"));
  NodePtr q = Node::LeftOuterJoin(Node::Leaf("r1"), view, p);

  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_FALSE(nq->drop_cols.empty());  // the auxiliary presence count
  bool aux_guard = false;
  for (const Wrapper& w : nq->wrappers) {
    if (w.kind == Wrapper::Kind::kGeneralizedSelection &&
        w.pred.ToString().find("#aux") != std::string::npos) {
      aux_guard = true;
    }
  }
  EXPECT_TRUE(aux_guard);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, FojOverGroupByFallsBackToOpaqueUnit) {
  Catalog cat = MakeCatalog(7, 2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r2", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kCountStar;
  agg.out_rel = "V";
  agg.out_name = "c";
  spec.aggs = {agg};
  NodePtr view = Node::GroupBy(Node::Leaf("r2"), spec);
  NodePtr q = Node::FullOuterJoin(Node::Leaf("r1"), view, P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  EXPECT_TRUE(nq->wrappers.empty());  // view materialized inside the tree
  // The query graph still forms, with the view as a unit.
  auto qg = BuildQueryGraph(nq->join_tree, cat);
  ASSERT_TRUE(qg.ok());
  EXPECT_EQ(qg->hypergraph.NumRelations(), 2);
  CheckRoundTrip(q, cat);
}

TEST(NormalizeTest, TwoGroupBysOneNodeMaterializesOneSide) {
  Catalog cat = MakeCatalog(8, 2);
  auto make_view = [&](const std::string& rel, const std::string& out_rel) {
    exec::GroupBySpec spec;
    spec.group_cols = {Attribute{rel, "a"}};
    exec::AggSpec agg;
    agg.func = exec::AggFunc::kCountStar;
    agg.out_rel = out_rel;
    agg.out_name = "c";
    spec.aggs = {agg};
    return Node::GroupBy(Node::Leaf(rel), spec);
  };
  NodePtr q = Node::Join(make_view("r1", "U"), make_view("r2", "W"),
                         P("r1", "r2"));
  auto nq = NormalizeForReordering(q, cat);
  ASSERT_TRUE(nq.ok());
  CheckRoundTrip(q, cat);
}

TEST(SchemaInferTest, MatchesExecutionSchemas) {
  Catalog cat = MakeCatalog(9, 3);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec agg;
  agg.func = exec::AggFunc::kSum;
  agg.input = Scalar::Column("r1", "b");
  agg.out_rel = "V";
  agg.out_name = "s";
  spec.aggs = {agg};
  for (NodePtr q : {
           Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
           Node::FullOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                               P("r1", "r2")),
           Node::GroupBy(Node::Leaf("r1"), spec),
           Node::Project(Node::Leaf("r1"), {Attribute{"r1", "c"}}),
           Node::GeneralizedSelection(
               Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), P("r1", "r2")),
               P("r1", "r2"), {exec::PreservedGroup{"r1"}}),
       }) {
    auto inferred = InferSchema(q, cat);
    auto executed = Execute(q, cat);
    ASSERT_TRUE(inferred.ok()) << q->ToString();
    ASSERT_TRUE(executed.ok());
    EXPECT_EQ(inferred->ToString(), executed->schema().ToString())
        << q->ToString();
  }
}

TEST(SchemaInferTest, ErrorsOnUnknownColumnsAndTables) {
  Catalog cat = MakeCatalog(10, 1);
  EXPECT_FALSE(InferSchema(Node::Leaf("nope"), cat).ok());
  EXPECT_FALSE(
      InferSchema(Node::Project(Node::Leaf("r1"), {Attribute{"r1", "zz"}}),
                  cat)
          .ok());
}

}  // namespace
}  // namespace gsopt
