#include "relational/relation.h"

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/datagen.h"
#include "relational/expr.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(SchemaTest, FindAndResolve) {
  Schema s({Attribute{"r1", "a"}, Attribute{"r1", "b"}, Attribute{"r2", "a"}});
  EXPECT_EQ(s.Find("r1", "b"), 1);
  EXPECT_EQ(s.Find("r9", "b"), -1);
  EXPECT_EQ(s.FindUnqualified("b"), 1);
  EXPECT_EQ(s.FindUnqualified("a"), -2);  // ambiguous
  EXPECT_TRUE(s.Resolve("r2", "a").ok());
  EXPECT_FALSE(s.Resolve("", "a").ok());
  EXPECT_TRUE(s.Resolve("", "b").ok());
}

TEST(SchemaTest, Concat) {
  Schema a({Attribute{"r1", "x"}});
  Schema b({Attribute{"r2", "y"}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.attr(1).Qualified(), "r2.y");
}

TEST(VirtualSchemaTest, FindAndConcat) {
  VirtualSchema a({"r1"});
  VirtualSchema b({"r2", "r3"});
  VirtualSchema c = VirtualSchema::Concat(a, b);
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.Find("r3"), 2);
  EXPECT_EQ(c.Find("zz"), -1);
}

TEST(RelationTest, AddBaseRowAssignsVids) {
  Relation r = MakeRelation("t", {"x"}, {{I(5)}, {I(6)}});
  EXPECT_EQ(r.row(0).vids[0], 0);
  EXPECT_EQ(r.row(1).vids[0], 1);
}

TEST(RelationTest, NullRowShape) {
  Relation r = MakeRelation("t", {"x", "y"}, {});
  r.AddNullRow();
  ASSERT_EQ(r.NumRows(), 1);
  const Tuple t = r.row(0);
  EXPECT_EQ(t.values.size(), 2u);
  EXPECT_TRUE(t.values[0].is_null());
  EXPECT_TRUE(t.values[1].is_null());
  ASSERT_EQ(t.vids.size(), 1u);
  EXPECT_EQ(t.vids[0], kNullRowId);
}

// Rows are counted explicitly, so a relation without value columns still
// has rows: with row ids (a zero-column base table joined in) and without.
TEST(RelationTest, ZeroColumnRelationsCountRows) {
  Relation ids(Schema(), VirtualSchema({"e"}));
  ids.Reserve(8);
  EXPECT_EQ(ids.NumRows(), 0);
  ids.AddBaseRow({}, 4);
  ids.Add(ids.row(0));
  Relation e1(Schema(), VirtualSchema({"e1"}));
  e1.AddBaseRow({}, 7);
  Relation joined(Schema(), VirtualSchema({"e", "e1"}));
  joined.AddConcat(ids.row(1), e1.row(0));
  joined.Reserve(100);
  EXPECT_EQ(ids.NumRows(), 2);
  EXPECT_EQ(ids.row(1).vids[0], 4);
  ASSERT_EQ(joined.NumRows(), 1);
  EXPECT_EQ(joined.row(0).vids[1], 7);

  Relation bare;
  bare.Reserve(3);
  bare.Add(Tuple());
  bare.AddConcat(Tuple(), Tuple());
  bare.AddNullRow();
  EXPECT_EQ(bare.NumRows(), 3);
  int seen = 0;
  for (const Tuple& t : bare.rows()) {
    EXPECT_TRUE(t.values.empty());
    EXPECT_TRUE(t.vids.empty());
    ++seen;
  }
  EXPECT_EQ(seen, 3);
  Relation moved = std::move(bare);
  EXPECT_EQ(moved.NumRows(), 3);
  EXPECT_EQ(bare.NumRows(), 0);  // NOLINT(bugprone-use-after-move)
}

// Appending to one relation never touches another's buffers.
TEST(RelationTest, ViewSurvivesAnotherRelationGrowing) {
  Relation src = MakeRelation("t", {"x", "s"},
                              {{I(1), Value::String("one")},
                               {I(2), Value::String("two")}});
  const Tuple view = src.row(1);
  Relation sink(src.schema(), src.vschema());
  for (int i = 0; i < 1000; ++i) sink.Add(view);
  EXPECT_EQ(view.values[0].AsInt(), 2);
  EXPECT_EQ(view.values[1].AsString(), "two");
  EXPECT_EQ(view.vids[0], 1);
  EXPECT_EQ(sink.row(999).values[1].AsString(), "two");
}

// A view of a relation's own row may be appended to it even when the
// append reallocates the buffers that view points into (the relation
// copies it out first). Run under ASan to see no stale read.
TEST(RelationTest, SelfAppendAcrossReallocation) {
  Relation r = MakeRelation("t", {"x", "s"}, {{I(7), Value::String("seven")}});
  for (int i = 0; i < 200; ++i) {
    r.Add(r.row(r.NumRows() - 1));
    r.AddConcat(Tuple(r.row(0).values.first(1), {}),
                Tuple(r.row(0).values.subspan(1), r.row(0).vids));
    r.AddPadded(r.row(0), true);
  }
  ASSERT_EQ(r.NumRows(), 601);
  for (const Tuple& t : r.rows()) {
    EXPECT_EQ(t.values[0].AsInt(), 7);
    EXPECT_EQ(t.values[1].AsString(), "seven");
    EXPECT_EQ(t.vids[0], 0);
  }
}

TEST(RelationTest, PaddingAndNullRowsFillWithNulls) {
  Relation a = MakeRelation("a", {"x"}, {{I(1)}});
  Relation out(Schema::Concat(a.schema(), Schema({Attribute{"b", "y"}})),
               VirtualSchema({"a", "b"}));
  out.AddPadded(a.row(0), true);
  out.AddPadded(a.row(0), false);
  const MutableTuple m = out.AddNullRow();
  m.values[1] = I(9);
  ASSERT_EQ(out.NumRows(), 3);
  EXPECT_EQ(out.row(0).values[0].AsInt(), 1);
  EXPECT_TRUE(out.row(0).values[1].is_null());
  EXPECT_EQ(out.row(0).vids[1], kNullRowId);
  EXPECT_TRUE(out.row(1).values[0].is_null());
  EXPECT_EQ(out.row(1).values[1].AsInt(), 1);
  EXPECT_EQ(out.row(1).vids[0], kNullRowId);
  EXPECT_EQ(out.row(1).vids[1], 0);
  EXPECT_TRUE(out.row(2).values[0].is_null());
  EXPECT_EQ(out.row(2).values[1].AsInt(), 9);
  EXPECT_EQ(out.row(2).vids[0], kNullRowId);
}

TEST(RelationTest, CanonicalStringSortsRowsAndColumns) {
  Relation a = MakeRelation("t", {"y", "x"}, {{I(2), I(1)}, {I(4), I(3)}});
  Relation b = MakeRelation("t", {"y", "x"}, {{I(4), I(3)}, {I(2), I(1)}});
  EXPECT_EQ(a.CanonicalString(), b.CanonicalString());
}

TEST(CatalogTest, CreateInsertGet) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", {"x", "y"}).ok());
  EXPECT_FALSE(cat.CreateTable("t", {"z"}).ok());  // duplicate
  ASSERT_TRUE(cat.Insert("t", {I(1), I(2)}).ok());
  EXPECT_FALSE(cat.Insert("t", {I(1)}).ok());     // arity
  EXPECT_FALSE(cat.Insert("nope", {I(1)}).ok());  // missing
  auto r = cat.Get("t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 1);
  EXPECT_TRUE(cat.Has("t"));
  EXPECT_FALSE(cat.Has("u"));
}

TEST(CatalogTest, RegisterValidatesShape) {
  Catalog cat;
  Relation good = MakeRelation("v", {"x"}, {{I(1)}});
  ASSERT_TRUE(cat.Register("v", good).ok());
  Relation misnamed = MakeRelation("w", {"x"}, {});
  EXPECT_FALSE(cat.Register("not_w", misnamed).ok());
}

TEST(DatagenTest, RandomRelationRespectsOptions) {
  Rng rng(1);
  RandomRelationOptions opt;
  opt.num_rows = 100;
  opt.domain = 5;
  opt.null_fraction = 0.5;
  Relation r = MakeRandomRelation("t", {"a", "b"}, opt, &rng);
  EXPECT_EQ(r.NumRows(), 100);
  int nulls = 0;
  for (const Tuple& t : r.rows()) {
    for (const Value& v : t.values) {
      if (v.is_null()) {
        ++nulls;
      } else {
        EXPECT_GE(v.AsInt(), 0);
        EXPECT_LT(v.AsInt(), 5);
      }
    }
  }
  EXPECT_GT(nulls, 50);  // ~100 expected of 200 values
  EXPECT_LT(nulls, 150);
}

TEST(ExprTest, PredicateSchemaAndComplexity) {
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"),
               MakeAtom("r2", "b", CmpOp::kLt, "r3", "b")});
  auto rels = p.RelNames();
  EXPECT_EQ(rels.size(), 3u);
  EXPECT_TRUE(p.IsComplex());
  Predicate simple(MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"));
  EXPECT_FALSE(simple.IsComplex());
}

TEST(ExprTest, ScalarEvalAndValidate) {
  Relation r = MakeRelation("t", {"x"}, {{I(3)}});
  ScalarPtr s = Scalar::Arith(ArithOp::kMul, Scalar::Column("t", "x"),
                              Scalar::Const(I(4)));
  EXPECT_EQ(s->Eval(r.row(0), r.schema()).AsInt(), 12);
  EXPECT_TRUE(s->Validate(r.schema()).ok());
  ScalarPtr bad = Scalar::Column("t", "nope");
  EXPECT_FALSE(bad->Validate(r.schema()).ok());
  EXPECT_TRUE(bad->Eval(r.row(0), r.schema()).is_null());
}

TEST(ExprTest, PredicateShortCircuitsOnFalse) {
  Relation r = MakeRelation("t", {"x"}, {{I(3)}});
  Predicate p({MakeConstAtom("t", "x", CmpOp::kGt, I(100)),
               MakeConstAtom("t", "x", CmpOp::kEq, I(3))});
  EXPECT_EQ(p.Eval(r.row(0), r.schema()), Tri::kFalse);
}

TEST(ExprTest, TautologyAtomAlwaysTrue) {
  Relation r = MakeRelation("t", {"x"}, {{Value::Null()}});
  Predicate p(MakeTautologyAtom());
  EXPECT_TRUE(p.Satisfied(r.row(0), r.schema()));
}

TEST(ExprTest, ToStringRoundTripsStructure) {
  Atom a = MakeAtom("r1", "a", CmpOp::kLe, "r2", "b");
  EXPECT_EQ(a.ToString(), "r1.a <= r2.b");
  Predicate p({a, MakeConstAtom("r1", "c", CmpOp::kNe, I(7))});
  EXPECT_EQ(p.ToString(), "r1.a <= r2.b AND r1.c <> 7");
  EXPECT_EQ(Predicate::True().ToString(), "TRUE");
}

}  // namespace
}  // namespace gsopt
