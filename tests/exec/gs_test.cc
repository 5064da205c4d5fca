// Tests for generalized selection (paper Definition 2.1), its definitional
// identities (joins as GS over a cartesian product), MGOJ, and the paper's
// Example 2.1 (experiment E1 in DESIGN.md).
#include <gtest/gtest.h>

#include "base/fault_injector.h"
#include "base/rng.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::FullOuterJoin;
using exec::GeneralizedSelection;
using exec::InnerJoin;
using exec::LeftOuterJoin;
using exec::Mgoj;
using exec::PreservedGroup;
using exec::Product;
using exec::Select;

Value I(int64_t v) { return Value::Int(v); }

Relation RA() {
  return MakeRelation("ra", {"x"}, {{I(1)}, {I(2)}, {I(2)}, {I(3)}});
}
Relation RB() {
  return MakeRelation("rb", {"x"}, {{I(2)}, {I(3)}, {I(5)}});
}

Predicate EqX() {
  return Predicate(MakeAtom("ra", "x", CmpOp::kEq, "rb", "x"));
}

// --- Definition 2.1 basics -------------------------------------------------

TEST(GeneralizedSelectionTest, NoGroupsIsPlainSelection) {
  Relation p = *Product(RA(), RB());
  Relation gs = *GeneralizedSelection(p, EqX(), {});
  EXPECT_TRUE(Relation::BagEquals(gs, *Select(p, EqX())));
}

TEST(GeneralizedSelectionTest, JoinIsGsOnProductWithNoPreserved) {
  // r1 JOIN_p r2 == sigma*_p[](r1 x r2)
  Relation gs = *GeneralizedSelection(*Product(RA(), RB()), EqX(), {});
  EXPECT_TRUE(Relation::BagEquals(gs, *InnerJoin(RA(), RB(), EqX())));
}

TEST(GeneralizedSelectionTest, LojIsGsOnProductPreservingLeft) {
  // r1 LOJ_p r2 == sigma*_p[r1](r1 x r2) (non-empty inputs)
  Relation gs =
      *GeneralizedSelection(*Product(RA(), RB()), EqX(), {PreservedGroup{"ra"}});
  EXPECT_TRUE(Relation::BagEquals(gs, *LeftOuterJoin(RA(), RB(), EqX())));
}

TEST(GeneralizedSelectionTest, FojIsGsOnProductPreservingBoth) {
  // r1 FOJ_p r2 == sigma*_p[r1, r2](r1 x r2) (non-empty inputs)
  Relation gs = *GeneralizedSelection(
      *Product(RA(), RB()), EqX(),
      {PreservedGroup{"ra"}, PreservedGroup{"rb"}});
  EXPECT_TRUE(Relation::BagEquals(gs, *FullOuterJoin(RA(), RB(), EqX())));
}

TEST(GeneralizedSelectionTest, DuplicatePreservedTuplesResurrectOncePerRowId) {
  // RA contains the value 2 twice (distinct row ids). Preserving {ra}
  // against a never-true predicate must resurrect BOTH duplicates: the
  // paper's pi_{Ri,Vi} projection includes virtual attributes.
  Predicate never(MakeConstAtom("ra", "x", CmpOp::kLt, I(0)));
  Relation gs = *GeneralizedSelection(*Product(RA(), RB()), never,
                                     {PreservedGroup{"ra"}});
  EXPECT_EQ(gs.NumRows(), 4);
}

TEST(GeneralizedSelectionTest, EmptyProductEdgeCaseDivergesFromLoj) {
  // Documented divergence (DESIGN.md): the cartesian-product definition of
  // LOJ breaks when the null-supplying side is empty, because pi(r1 x {})
  // is empty. The binary operator preserves; the literal GS does not.
  Relation empty = MakeRelation("rb", {"x"}, {});
  Relation loj = *LeftOuterJoin(RA(), empty, EqX());
  Relation gs = *GeneralizedSelection(*Product(RA(), empty), EqX(),
                                     {PreservedGroup{"ra"}});
  EXPECT_EQ(loj.NumRows(), 4);
  EXPECT_EQ(gs.NumRows(), 0);
}

TEST(GeneralizedSelectionTest, PreservingCompositeGroup) {
  // Preserve the composite relation {ra, rb} of a 3-way product against a
  // predicate on rc: resurrected tuples keep ra AND rb values together.
  Relation rc = MakeRelation("rc", {"y"}, {{I(1)}});
  Relation p = *Product(*Product(RA(), RB()), rc);
  Predicate never(MakeConstAtom("rc", "y", CmpOp::kLt, I(0)));
  Relation gs = *GeneralizedSelection(p, never, {PreservedGroup{"ra", "rb"}});
  // 4*3 = 12 distinct (ra,rb) combinations resurrected, rc NULL.
  EXPECT_EQ(gs.NumRows(), 12);
  for (const Tuple& t : gs.rows()) {
    EXPECT_FALSE(t.values[0].is_null());
    EXPECT_FALSE(t.values[1].is_null());
    EXPECT_TRUE(t.values[2].is_null());
  }
}

TEST(GeneralizedSelectionTest, SchemaUnchanged) {
  Relation p = *Product(RA(), RB());
  Relation gs = *GeneralizedSelection(p, EqX(), {PreservedGroup{"ra"}});
  EXPECT_EQ(gs.schema().ToString(), p.schema().ToString());
  EXPECT_TRUE(gs.vschema() == p.vschema());
}

// --- MGOJ ------------------------------------------------------------------

TEST(MgojTest, MatchesGsOnProductRandomized) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    RandomRelationOptions opt;
    opt.num_rows = 1 + static_cast<int>(rng.Uniform(1, 12));
    opt.domain = 4;
    opt.null_fraction = 0.15;
    Relation a = MakeRandomRelation("s1", {"a", "b"}, opt, &rng);
    Relation b = MakeRandomRelation("s2", {"a", "b"}, opt, &rng);
    Predicate p(MakeAtom("s1", "a", CmpOp::kEq, "s2", "a"));
    for (const auto& groups :
         std::vector<std::vector<PreservedGroup>>{
             {},
             {PreservedGroup{"s1"}},
             {PreservedGroup{"s2"}},
             {PreservedGroup{"s1"}, PreservedGroup{"s2"}},
             {PreservedGroup{"s1", "s2"}}}) {
      Relation m = *Mgoj(a, b, p, groups);
      Relation g = *GeneralizedSelection(*Product(a, b), p, groups);
      EXPECT_TRUE(Relation::BagEquals(m, g))
          << "trial " << trial << " groups " << groups.size();
    }
  }
}

TEST(MgojTest, CompensationProbesBudgetPerRow) {
  // Every preserved row the compensation considers passes a budget probe,
  // so a deadline or an injected fault can stop it mid-pass.
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 5000; ++i) rows.push_back({I(i)});
  Relation a = MakeRelation("ra", {"x"}, rows);
  Relation b = MakeRelation("rb", {"x"}, {{I(-1)}});
  FaultInjector fault;
  exec::ExecContext ctx;
  ctx.fault = &fault;
  Relation m = *Mgoj(a, b, EqX(), {PreservedGroup{"ra"}}, ctx);
  EXPECT_EQ(m.NumRows(), a.NumRows());
  EXPECT_GE(fault.probes(FaultSite::kBudgetCheck),
            static_cast<uint64_t>(a.NumRows()));
}

TEST(MgojTest, NoGroupsIsInnerJoin) {
  Relation m = *Mgoj(RA(), RB(), EqX(), {});
  EXPECT_TRUE(Relation::BagEquals(m, *InnerJoin(RA(), RB(), EqX())));
}

TEST(MgojTest, PreservesLeftAcrossEmptyRight) {
  // Binary-operator semantics: preservation applies even with an empty
  // other side (unlike the literal product formulation).
  Relation empty = MakeRelation("rb", {"x"}, {});
  Relation m = *Mgoj(RA(), empty, EqX(), {PreservedGroup{"ra"}});
  EXPECT_TRUE(
      Relation::BagEquals(m, *LeftOuterJoin(RA(), empty, EqX())));
}

TEST(MgojTest, FullPreservationEqualsFoj) {
  Relation m = *Mgoj(RA(), RB(), EqX(),
                    {PreservedGroup{"ra"}, PreservedGroup{"rb"}});
  EXPECT_TRUE(Relation::BagEquals(m, *FullOuterJoin(RA(), RB(), EqX())));
}

// --- Paper Example 2.1 (experiment E1) --------------------------------------
//
// Relations (values renamed to integers: a1=1, a2=2, ..., f3=3):
//   r1(a,b,c,f) = {(1,1,1,1), (2,1,1,2), (2,1,2,2)}
//   r2(c,d,e)   = {(1,1,1)}
//   r3(e,f)     = {(1,1), (1,3)}
// Predicates: p12: r1.c=r2.c, p13: r1.f=r3.f, p23: r2.e=r3.e.

struct Example21 {
  Relation r1 = MakeRelation(
      "r1", {"a", "b", "c", "f"},
      {{I(1), I(1), I(1), I(1)}, {I(2), I(1), I(1), I(2)},
       {I(2), I(1), I(2), I(2)}});
  Relation r2 = MakeRelation("r2", {"c", "d", "e"}, {{I(1), I(1), I(1)}});
  Relation r3 = MakeRelation("r3", {"e", "f"}, {{I(1), I(1)}, {I(1), I(3)}});
  Predicate p12 = Predicate(MakeAtom("r1", "c", CmpOp::kEq, "r2", "c"));
  Predicate p13 = Predicate(MakeAtom("r1", "f", CmpOp::kEq, "r3", "f"));
  Predicate p23 = Predicate(MakeAtom("r2", "e", CmpOp::kEq, "r3", "e"));
};

TEST(PaperExample21, T1AsWritten) {
  Example21 ex;
  // T1 = (r1 LOJ_p12 r2) LOJ_{p13 ^ p23} r3  -- three rows, exactly as the
  // paper's table T1.
  Relation t1 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              Predicate::And(ex.p13, ex.p23));
  EXPECT_EQ(t1.NumRows(), 3);
  Relation expected = t1;  // verify row-by-row below instead
  int matched = 0, padded_r3 = 0, padded_r2r3 = 0;
  for (const Tuple& t : t1.rows()) {
    bool r2_null = t.values[4].is_null();
    bool r3_null = t.values[7].is_null();
    if (!r2_null && !r3_null) ++matched;
    if (!r2_null && r3_null) ++padded_r3;
    if (r2_null && r3_null) ++padded_r2r3;
  }
  EXPECT_EQ(matched, 1);      // (a1,b1,c1,f1, c1,d1,e1, e1,f1)
  EXPECT_EQ(padded_r3, 1);    // (a2,b1,c1,f2, c1,d1,e1, -,-)
  EXPECT_EQ(padded_r2r3, 1);  // (a2,b1,c2,f2, -,-,-, -,-)
}

TEST(PaperExample21, T2BreaksWithoutCompensation) {
  Example21 ex;
  Relation t2 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              ex.p23);
  Relation t1 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              Predicate::And(ex.p13, ex.p23));
  // Dropping p13 from the outer join changes the result (t2 over-matches).
  EXPECT_FALSE(Relation::BagEquals(t1, t2));
  EXPECT_EQ(t2.NumRows(), 5);  // both r1-c1 rows match both r3 rows
}

TEST(PaperExample21, GsCompensationRecoversT1) {
  Example21 ex;
  Relation t2 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              ex.p23);
  Relation t1 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              Predicate::And(ex.p13, ex.p23));
  // sigma*_{p13}[r1 r2](T2) == T1: the paper's headline compensation.
  Relation fixed =
      *GeneralizedSelection(t2, ex.p13, {PreservedGroup{"r1", "r2"}});
  EXPECT_TRUE(Relation::BagEquals(fixed, t1));
}

TEST(PaperExample21, WrongPreservedSetDoesNotRecoverT1) {
  Example21 ex;
  Relation t2 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              ex.p23);
  Relation t1 = *LeftOuterJoin(*LeftOuterJoin(ex.r1, ex.r2, ex.p12), ex.r3,
                              Predicate::And(ex.p13, ex.p23));
  // Preserving only r1 (instead of the composite r1r2) loses r2 values on
  // resurrected tuples -- the preserved-set computation matters.
  Relation wrong = *GeneralizedSelection(t2, ex.p13, {PreservedGroup{"r1"}});
  EXPECT_FALSE(Relation::BagEquals(wrong, t1));
}

}  // namespace
}  // namespace gsopt
