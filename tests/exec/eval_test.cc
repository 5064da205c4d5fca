#include "exec/eval.h"

#include <gtest/gtest.h>

#include "base/rng.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::AntiJoin;
using exec::FullOuterJoin;
using exec::InnerJoin;
using exec::LeftOuterJoin;
using exec::OuterUnion;
using exec::Product;
using exec::Project;
using exec::RightOuterJoin;
using exec::Select;
using exec::SemiJoin;

Value I(int64_t v) { return Value::Int(v); }
Value N() { return Value::Null(); }

Relation R1() {
  return MakeRelation("r1", {"a", "b"},
                      {{I(1), I(10)}, {I(2), I(20)}, {I(3), I(30)}});
}
Relation R2() {
  return MakeRelation("r2", {"b", "c"},
                      {{I(10), I(100)}, {I(10), I(101)}, {I(40), I(400)}});
}

Predicate EqB() {
  return Predicate(MakeAtom("r1", "b", CmpOp::kEq, "r2", "b"));
}

TEST(ProductTest, CardinalityAndSchema) {
  Relation p = *Product(R1(), R2());
  EXPECT_EQ(p.NumRows(), 9);
  EXPECT_EQ(p.schema().size(), 4);
  EXPECT_EQ(p.vschema().size(), 2);
  EXPECT_EQ(p.vschema().rel(0), "r1");
  EXPECT_EQ(p.vschema().rel(1), "r2");
}

TEST(ProductTest, EmptySideYieldsEmpty) {
  Relation empty = MakeRelation("r2", {"b", "c"}, {});
  EXPECT_EQ(Product(R1(), empty)->NumRows(), 0);
}

TEST(SelectTest, FiltersUnknownAsFalse) {
  Relation r = MakeRelation("r", {"x"}, {{I(1)}, {N()}, {I(2)}});
  Predicate p(MakeConstAtom("r", "x", CmpOp::kGe, I(1)));
  Relation s = *Select(r, p);
  EXPECT_EQ(s.NumRows(), 2);  // NULL row dropped: null in-tolerance
}

TEST(SelectTest, TruePredicateKeepsAll) {
  EXPECT_EQ(Select(R1(), Predicate::True())->NumRows(), 3);
}

TEST(ProjectTest, KeepsDuplicatesAndRestrictsVirtualSchema) {
  Relation r = MakeRelation("r", {"x", "y"}, {{I(1), I(1)}, {I(1), I(2)}});
  std::vector<Attribute> x = {Attribute{"r", "x"}};
  Relation p = *Project(r, x, x);
  EXPECT_EQ(p.NumRows(), 2);  // duplicate-preserving
  EXPECT_EQ(p.schema().size(), 1);
  EXPECT_EQ(p.vschema().size(), 1);  // r's vid kept, attrs all from r
}

TEST(InnerJoinTest, HashPathEquiJoin) {
  Relation j = *InnerJoin(R1(), R2(), EqB());
  EXPECT_EQ(j.NumRows(), 2);  // b=10 matches two r2 rows
  for (const Tuple& t : j.rows()) {
    EXPECT_TRUE(Value::IdentityEquals(t.values[1], t.values[2]));
  }
}

TEST(InnerJoinTest, NullKeysNeverMatch) {
  Relation a = MakeRelation("r1", {"a", "b"}, {{I(1), N()}});
  Relation b = MakeRelation("r2", {"b", "c"}, {{N(), I(9)}});
  EXPECT_EQ(InnerJoin(a, b, EqB())->NumRows(), 0);
}

TEST(InnerJoinTest, NestedLoopFallbackForInequality) {
  Predicate lt(MakeAtom("r1", "b", CmpOp::kLt, "r2", "b"));
  Relation j = *InnerJoin(R1(), R2(), lt);
  // r1.b in {10,20,30}; r2.b in {10,10,40}: pairs with r1.b<r2.b:
  // 10<40, 20<40, 30<40 => 3
  EXPECT_EQ(j.NumRows(), 3);
}

TEST(InnerJoinTest, HashAndNestedLoopAgreeOnRandomData) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    RandomRelationOptions opt;
    opt.num_rows = 30;
    opt.domain = 5;
    opt.null_fraction = 0.1;
    Relation a = MakeRandomRelation("r1", {"a", "b"}, opt, &rng);
    Relation b = MakeRandomRelation("r2", {"b", "c"}, opt, &rng);
    // Equi atom (hash path) vs the same join forced through nested loops
    // by phrasing equality as (<= AND >=).
    Predicate eq(MakeAtom("r1", "b", CmpOp::kEq, "r2", "b"));
    Predicate eq_nl;
    eq_nl.AddAtom(MakeAtom("r1", "b", CmpOp::kLe, "r2", "b"));
    eq_nl.AddAtom(MakeAtom("r1", "b", CmpOp::kGe, "r2", "b"));
    EXPECT_TRUE(Relation::BagEquals(*InnerJoin(a, b, eq),
                                    *InnerJoin(a, b, eq_nl)));
  }
}

TEST(LeftOuterJoinTest, PreservesUnmatchedLeft) {
  Relation j = *LeftOuterJoin(R1(), R2(), EqB());
  EXPECT_EQ(j.NumRows(), 4);  // 2 matches + rows b=20,30 padded
  int padded = 0;
  for (const Tuple& t : j.rows()) {
    if (t.values[2].is_null()) {
      ++padded;
      EXPECT_TRUE(t.values[3].is_null());
      EXPECT_EQ(t.vids[1], kNullRowId);
      EXPECT_NE(t.vids[0], kNullRowId);
    }
  }
  EXPECT_EQ(padded, 2);
}

TEST(LeftOuterJoinTest, EmptyRightPreservesAllLeft) {
  Relation empty = MakeRelation("r2", {"b", "c"}, {});
  Relation j = *LeftOuterJoin(R1(), empty, EqB());
  EXPECT_EQ(j.NumRows(), 3);
}

TEST(RightOuterJoinTest, MirrorsLeft) {
  Relation j = *RightOuterJoin(R1(), R2(), EqB());
  Relation j2 = *LeftOuterJoin(R2(), R1(), EqB());
  EXPECT_TRUE(Relation::BagEquals(j, j2));
}

TEST(FullOuterJoinTest, PreservesBothSides) {
  Relation j = *FullOuterJoin(R1(), R2(), EqB());
  // 2 matches + 2 unmatched left + 1 unmatched right (b=40)
  EXPECT_EQ(j.NumRows(), 5);
}

TEST(AntiJoinTest, UnmatchedLeftOnly) {
  Relation j = *AntiJoin(R1(), R2(), EqB());
  EXPECT_EQ(j.NumRows(), 2);
  EXPECT_EQ(j.schema().size(), 2);
}

TEST(SemiJoinTest, MatchedLeftWithoutDuplication) {
  Relation j = *SemiJoin(R1(), R2(), EqB());
  EXPECT_EQ(j.NumRows(), 1);  // only b=10 row, once despite two matches
}

TEST(LojDecomposition, LojEqualsJoinUnionAntiPadded) {
  // Paper 1.2: LOJ extension is the union of join and anti-join (padded).
  Relation loj = *LeftOuterJoin(R1(), R2(), EqB());
  Relation join = *InnerJoin(R1(), R2(), EqB());
  Relation anti = *AntiJoin(R1(), R2(), EqB());
  Relation combined = *OuterUnion(join, anti);
  EXPECT_TRUE(Relation::BagEquals(loj, combined));
}

TEST(OuterUnionTest, PadsMissingAttributes) {
  Relation u = *OuterUnion(R1(), R2());
  EXPECT_EQ(u.NumRows(), 6);
  EXPECT_EQ(u.schema().size(), 4);  // r1.a, r1.b, r2.b, r2.c
  // r1 rows have NULL r2 attributes and vice versa.
  EXPECT_TRUE(u.row(0).values[2].is_null());
  EXPECT_TRUE(u.row(3).values[0].is_null());
}

TEST(OuterUnionTest, SharedAttributesAlign) {
  Relation a = MakeRelation("t", {"x"}, {{I(1)}});
  Relation b = MakeRelation("t", {"x"}, {{I(2)}});
  Relation u = *OuterUnion(a, b);
  EXPECT_EQ(u.schema().size(), 1);
  EXPECT_EQ(u.NumRows(), 2);
}

TEST(BagEqualsTest, ColumnOrderIndependent) {
  Relation ab = *Product(R1(), R2());
  Relation ba = *Product(R2(), R1());
  EXPECT_TRUE(Relation::BagEquals(ab, ba));
}

TEST(BagEqualsTest, DetectsCardinalityDifference) {
  Relation a = MakeRelation("t", {"x"}, {{I(1)}, {I(1)}});
  Relation b = MakeRelation("t", {"x"}, {{I(1)}});
  EXPECT_FALSE(Relation::BagEquals(a, b));
}

TEST(BagEqualsTest, DistinguishesNullFromValue) {
  Relation a = MakeRelation("t", {"x"}, {{N()}});
  Relation b = MakeRelation("t", {"x"}, {{I(0)}});
  EXPECT_FALSE(Relation::BagEquals(a, b));
}

}  // namespace
}  // namespace gsopt
