// Projection kernels: duplicate preservation, virtual-schema restriction,
// renaming semantics, interaction with GS provenance.
#include <gtest/gtest.h>

#include "algebra/execute.h"
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

}  // namespace
}  // namespace gsopt
