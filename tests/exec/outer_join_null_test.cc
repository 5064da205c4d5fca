// Outer-join NULL equi-key semantics: a NULL join key never equi-matches
// (3VL), so the hash core's key encoding skips the row -- but on the
// preserved side of an outer join the same row must still come back
// null-padded. The hash fast path and the nested-loop fallback must agree
// on this, which the property test pins down by running each predicate in
// a hash-usable and a hash-defeating-but-equivalent form.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::FullOuterJoin;
using exec::InnerJoin;
using exec::LeftOuterJoin;
using exec::RightOuterJoin;

Value I(int64_t v) { return Value::Int(v); }
Value N() { return Value::Null(); }

// a has a NULL key row and a matching row; b has a NULL key row and the
// match. Column layout after a join: [a.k, a.p, b.k, b.q].
Relation A() {
  return MakeRelation("a", {"k", "p"}, {{I(1), I(10)}, {N(), I(20)}});
}
Relation B() {
  return MakeRelation("b", {"k", "q"}, {{I(1), I(100)}, {N(), I(200)}});
}
Predicate EqK() { return Predicate(MakeAtom("a", "k", CmpOp::kEq, "b", "k")); }

// Number of rows where the a-side columns are all NULL (b-preserved pad)
// or the b-side columns are all NULL (a-preserved pad).
int CountPadded(const Relation& r, int from, int to) {
  int n = 0;
  for (const Tuple& t : r.rows()) {
    bool all_null = true;
    for (int i = from; i < to; ++i) all_null &= t.values[i].is_null();
    n += all_null ? 1 : 0;
  }
  return n;
}

TEST(OuterJoinNullKeyTest, LeftPreservesNullKeyRow) {
  Relation j = *LeftOuterJoin(A(), B(), EqK());
  // match (1,10,1,100) + null-padded (NULL,20,NULL,NULL).
  ASSERT_EQ(j.NumRows(), 2);
  EXPECT_EQ(CountPadded(j, 2, 4), 1);  // b side padded once
  bool saw_null_key_row = false;
  for (const Tuple& t : j.rows()) {
    if (t.values[0].is_null()) {
      saw_null_key_row = true;
      EXPECT_TRUE(Value::IdentityEquals(t.values[1], I(20)));
      EXPECT_TRUE(t.values[2].is_null());
      EXPECT_TRUE(t.values[3].is_null());
    }
  }
  EXPECT_TRUE(saw_null_key_row);
}

TEST(OuterJoinNullKeyTest, RightPreservesNullKeyRow) {
  Relation j = *RightOuterJoin(A(), B(), EqK());
  ASSERT_EQ(j.NumRows(), 2);
  EXPECT_EQ(CountPadded(j, 0, 2), 1);  // a side padded once
}

TEST(OuterJoinNullKeyTest, FullPreservesBothNullKeyRows) {
  Relation j = *FullOuterJoin(A(), B(), EqK());
  // match + a's NULL-key row + b's NULL-key row.
  ASSERT_EQ(j.NumRows(), 3);
  EXPECT_EQ(CountPadded(j, 2, 4), 1);
  EXPECT_EQ(CountPadded(j, 0, 2), 1);
}

TEST(OuterJoinNullKeyTest, InnerDropsNullKeyRows) {
  Relation j = *InnerJoin(A(), B(), EqK());
  ASSERT_EQ(j.NumRows(), 1);
  EXPECT_TRUE(Value::IdentityEquals(j.row(0).values[0], I(1)));
}

TEST(OuterJoinNullKeyTest, HashCountersSeeTheSkips) {
  exec::OperatorStats stats;
  exec::ExecContext ctx{nullptr, &stats};
  Relation j = *LeftOuterJoin(A(), B(), EqK(), ctx);
  ASSERT_EQ(j.NumRows(), 2);
  EXPECT_TRUE(stats.hash_path);
  EXPECT_EQ(stats.build_rows, 1u);       // b's NULL key never enters the table
  EXPECT_EQ(stats.probe_rows, 1u);       // a's NULL key never probes
  EXPECT_EQ(stats.null_key_skips, 2u);   // one skip per side
}

TEST(OuterJoinNullKeyTest, HashAndNestedLoopAgreeUnderNulls) {
  // a.k = b.k (hash path) versus a.k <= b.k AND a.k >= b.k (no clean
  // equi-conjunct, nested loops) -- identical 3VL semantics, so every
  // join flavour must produce bag-equal results on null-heavy data.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    RandomRelationOptions opt;
    opt.num_rows = 25;
    opt.domain = 4;
    opt.null_fraction = 0.3;
    Relation a = MakeRandomRelation("a", {"k", "p"}, opt, &rng);
    Relation b = MakeRandomRelation("b", {"k", "q"}, opt, &rng);
    Predicate hash_p(MakeAtom("a", "k", CmpOp::kEq, "b", "k"));
    Predicate loop_p = Predicate::And(
        Predicate(MakeAtom("a", "k", CmpOp::kLe, "b", "k")),
        Predicate(MakeAtom("a", "k", CmpOp::kGe, "b", "k")));
    EXPECT_TRUE(Relation::BagEquals(*InnerJoin(a, b, hash_p),
                                    *InnerJoin(a, b, loop_p)))
        << "inner, trial " << trial;
    EXPECT_TRUE(Relation::BagEquals(*LeftOuterJoin(a, b, hash_p),
                                    *LeftOuterJoin(a, b, loop_p)))
        << "left, trial " << trial;
    EXPECT_TRUE(Relation::BagEquals(*RightOuterJoin(a, b, hash_p),
                                    *RightOuterJoin(a, b, loop_p)))
        << "right, trial " << trial;
    EXPECT_TRUE(Relation::BagEquals(*FullOuterJoin(a, b, hash_p),
                                    *FullOuterJoin(a, b, loop_p)))
        << "full, trial " << trial;
  }
}

}  // namespace
}  // namespace gsopt
