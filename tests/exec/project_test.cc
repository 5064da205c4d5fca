// Projection kernels: duplicate preservation, virtual-schema restriction,
// renaming semantics, interaction with GS provenance; and the interpreter's
// identity-projection pass-through and in-place scans.
#include <gtest/gtest.h>

#include <string>

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/session.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(ProjectAsTest, RenamesColumnsAndDropsVids) {
  Relation r = MakeRelation("t", {"x", "y"}, {{I(1), I(2)}, {I(3), I(4)}});
  Relation out = *exec::Project(r, {Attribute{"t", "y"}, Attribute{"t", "x"}},
                               {Attribute{"q", "a"}, Attribute{"q", "b"}});
  EXPECT_EQ(out.schema().ToString(), "(q.a, q.b)");
  EXPECT_EQ(out.vschema().size(), 0);
  EXPECT_EQ(out.row(0).values[0].AsInt(), 2);
  EXPECT_EQ(out.row(0).values[1].AsInt(), 1);
}

TEST(ProjectAsTest, PreservesDuplicates) {
  Relation r = MakeRelation("t", {"x", "y"},
                            {{I(1), I(2)}, {I(1), I(9)}, {I(1), I(2)}});
  Relation out =
      *exec::Project(r, {Attribute{"t", "x"}}, {Attribute{"q", "x"}});
  EXPECT_EQ(out.NumRows(), 3);
}

TEST(ProjectNodeTest, RenamingThroughExecute) {
  Catalog cat;
  GSOPT_CHECK(cat.CreateTable("t", {"x"}).ok());
  GSOPT_CHECK(cat.Insert("t", {I(7)}).ok());
  NodePtr p = Node::ProjectAs(Node::Leaf("t"), {Attribute{"t", "x"}},
                              {Attribute{"out", "val"}});
  auto rel = Execute(p, cat);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().attr(0).Qualified(), "out.val");
  EXPECT_EQ(rel->row(0).values[0].AsInt(), 7);
}

TEST(ProjectTest, VirtualSchemaOnlyForFullyCoveredRelations) {
  Relation a = MakeRelation("a", {"x"}, {{I(1)}});
  Relation b = MakeRelation("b", {"y", "z"}, {{I(2), I(3)}});
  Relation ab = *exec::Product(a, b);
  // Keep a.x and b.y: both relations contribute at least one column, so
  // both vids survive (provenance is per relation, not per column).
  std::vector<Attribute> both = {Attribute{"a", "x"}, Attribute{"b", "y"}};
  Relation p1 = *exec::Project(ab, both, both);
  EXPECT_EQ(p1.vschema().size(), 2);
  // Keep only a.x: b's vid disappears.
  std::vector<Attribute> ax = {Attribute{"a", "x"}};
  Relation p2 = *exec::Project(ab, ax, ax);
  EXPECT_EQ(p2.vschema().size(), 1);
  EXPECT_EQ(p2.vschema().rel(0), "a");
}

TEST(ProjectTest, ColumnCountMismatchIsInvalidArgument) {
  Relation r = MakeRelation("t", {"x", "y"}, {{I(1), I(2)}});
  auto out = exec::Project(r, {Attribute{"t", "x"}, Attribute{"t", "y"}},
                           {Attribute{"q", "x"}});
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProjectTest, GsAfterProjectUsesSurvivingProvenance) {
  // GS over a projection that kept a's vid: duplicates of a (same values,
  // different row ids) must still resurrect individually.
  Relation a = MakeRelation("a", {"x"}, {{I(5)}, {I(5)}});
  Relation b = MakeRelation("b", {"x"}, {{I(9)}});
  Relation ab = *exec::Product(a, b);
  std::vector<Attribute> cols = {Attribute{"a", "x"}, Attribute{"b", "x"}};
  Relation proj = *exec::Project(ab, cols, cols);
  Predicate never(MakeConstAtom("b", "x", CmpOp::kLt, I(0)));
  Relation gs = *exec::GeneralizedSelection(proj, never,
                                           {exec::PreservedGroup{"a"}});
  EXPECT_EQ(gs.NumRows(), 2);  // one resurrection per a-row id
}

// --- identity pass-through ----------------------------------------------

Catalog PassThroughCatalog() {
  Catalog cat;
  Rng rng(5);
  RandomRelationOptions opt;
  opt.num_rows = 40;
  opt.domain = 6;
  opt.null_fraction = 0.2;
  AddRandomTables(2, opt, &rng, &cat);
  return cat;
}

std::vector<Attribute> ColumnsOf(const NodePtr& child, const Catalog& cat) {
  return Execute(child, cat)->schema().attrs();
}

// Row-for-row identity, order, values and row ids included.
void ExpectSameRows(const Relation& got, const Relation& want) {
  EXPECT_EQ(got.schema(), want.schema());
  EXPECT_EQ(got.vschema(), want.vschema());
  ASSERT_EQ(got.NumRows(), want.NumRows());
  for (int64_t i = 0; i < got.NumRows(); ++i) {
    const Tuple& g = got.row(i);
    const Tuple& w = want.row(i);
    ASSERT_EQ(g.values.size(), w.values.size());
    for (size_t c = 0; c < g.values.size(); ++c) {
      EXPECT_TRUE(Value::IdentityEquals(g.values[c], w.values[c]))
          << "row " << i << " column " << c;
    }
    ASSERT_EQ(g.vids.size(), w.vids.size());
    for (size_t v = 0; v < g.vids.size(); ++v) {
      EXPECT_EQ(g.vids[v], w.vids[v]) << "row " << i << " vid " << v;
    }
  }
}

ExecuteOptions Reference() {
  ExecuteOptions o;
  o.batch = exec::BatchMode::kOff;
  return o;
}

TEST(PassThroughTest, IdentityProjectionMatchesTheKernel) {
  Catalog cat = PassThroughCatalog();
  Predicate a_lt_3(MakeConstAtom("r1", "a", CmpOp::kLt, I(3)));
  Predicate a_eq(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  const std::vector<NodePtr> children = {
      Node::Leaf("r1"),                                            // borrowed
      Node::Select(Node::Leaf("r1"), a_lt_3),                      // owned
      Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), a_eq),        // owned
      Node::Project(Node::Leaf("r1"), ColumnsOf(Node::Leaf("r1"), cat)),
  };
  for (const NodePtr& child : children) {
    SCOPED_TRACE(child->ToString());
    const std::vector<Attribute> cols = ColumnsOf(child, cat);
    const NodePtr q = Node::Project(child, cols);
    Relation input = *Execute(child, cat);
    EXPECT_TRUE(exec::IsIdentityProjection(input, cols, cols));
    Relation kernel = *exec::Project(input, cols, cols);

    exec::OperatorStats fast_stats;
    StatusOr<Relation> fast =
        Execute(q, cat, ExecuteOptions{}.WithStats(&fast_stats));
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    ExpectSameRows(*fast, kernel);

    // The reference evaluator copies through the kernel; its counters are
    // the kernel's.
    exec::OperatorStats ref_stats;
    StatusOr<Relation> ref = Execute(q, cat, Reference().WithStats(&ref_stats));
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_TRUE(Relation::BagEquals(*fast, *ref));
    EXPECT_EQ(ref->schema(), fast->schema());
    EXPECT_EQ(ref->vschema(), fast->vschema());
    EXPECT_EQ(fast_stats.rows_in, ref_stats.rows_in);
    EXPECT_EQ(fast_stats.rows_out, ref_stats.rows_out);
    EXPECT_EQ(fast_stats.rows_in, static_cast<uint64_t>(input.NumRows()));
  }
}

TEST(PassThroughTest, RowCapTripsAsTheKernelDoes) {
  Catalog cat = PassThroughCatalog();
  Predicate a_lt_3(MakeConstAtom("r1", "a", CmpOp::kLt, I(3)));
  const NodePtr sel = Node::Select(Node::Leaf("r1"), a_lt_3);
  const uint64_t n = static_cast<uint64_t>(Execute(sel, cat)->NumRows());
  ASSERT_GT(n, 1u);
  const NodePtr q = Node::Project(sel, ColumnsOf(sel, cat));
  // The select charges n rows and the projection n more: caps below n trip
  // in the select, caps in [n, 2n) in the projection.
  for (uint64_t cap : {uint64_t{0}, n - 1, n, 2 * n - 1, 2 * n, 2 * n + 1}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ResourceBudget fast_budget;
    fast_budget.WithMaxRows(cap);
    ResourceBudget ref_budget;
    ref_budget.WithMaxRows(cap);
    StatusOr<Relation> fast =
        Execute(q, cat, ExecuteOptions{}.WithBudget(&fast_budget));
    StatusOr<Relation> ref =
        Execute(q, cat, Reference().WithBudget(&ref_budget));
    EXPECT_EQ(fast.ok(), cap >= 2 * n);
    EXPECT_EQ(ref.ok(), cap >= 2 * n);
    EXPECT_EQ(fast.status().code(), ref.status().code());
    if (cap >= n && cap < 2 * n) {
      EXPECT_EQ(fast.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(fast.status().message().rfind("project: row cap", 0), 0u)
          << fast.status().ToString();
    }
  }
}

TEST(PassThroughTest, NonIdentityProjectionsRunTheKernel) {
  Catalog cat = PassThroughCatalog();
  // A zero-column table: joined in, it adds a row id but no column.
  ASSERT_TRUE(cat.CreateTable("e", {}).ok());
  ASSERT_TRUE(cat.Insert("e", {}).ok());
  const Attribute a{"r1", "a"}, b{"r1", "b"}, c{"r1", "c"};
  const std::vector<Attribute> r1_cols = {a, b, c};
  Predicate a_eq(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  struct Case {
    const char* name;
    NodePtr child;
    std::vector<Attribute> src, out;
  };
  const NodePtr r1 = Node::Leaf("r1");
  const NodePtr r1_r2 = Node::Join(r1, Node::Leaf("r2"), a_eq);
  const NodePtr r1_e = Node::Join(r1, Node::Leaf("e"), Predicate::True());
  const NodePtr r1_r1 = Node::Join(r1, r1, Predicate::True());
  const std::vector<Case> cases = {
      {"reordered", r1, {c, a, b}, {c, a, b}},
      {"subset", r1_r2, r1_cols, r1_cols},
      {"renamed", r1, r1_cols, {{"q", "a"}, {"q", "b"}, {"q", "c"}}},
      {"relation-dropping", r1_e, r1_cols, r1_cols},
      {"duplicate columns", r1_r1, ColumnsOf(r1_r1, cat),
       ColumnsOf(r1_r1, cat)},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    Relation input = *Execute(k.child, cat);
    EXPECT_FALSE(exec::IsIdentityProjection(input, k.src, k.out));
    Relation kernel = *exec::Project(input, k.src, k.out);
    StatusOr<Relation> got =
        Execute(Node::ProjectAs(k.child, k.src, k.out), cat);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRows(*got, kernel);
  }
}

TEST(PassThroughTest, SessionResultOutlivesTableWrites) {
  Catalog cat = PassThroughCatalog();
  const Relation before = *cat.Get("r1");
  Session session(cat);
  StatusOr<QueryResult> result = session.Query("SELECT * FROM r1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Enough rows to move the table's storage.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cat.Insert("r1", {I(100 + i), I(i), I(i)}).ok());
  }
  ExpectSameRows(result->rows, before);
}

}  // namespace
}  // namespace gsopt
