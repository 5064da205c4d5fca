// Optimized-vs-reference differential suite for the optimized kernels:
// the optimized kernels (BatchMode::kAuto) must reproduce the reference
// evaluator
// (BatchMode::kOff: row-at-a-time selection and aggregation, nested-loop
// joins) on every shape -- selection (exact row order), hash joins of
// every flavor with bound residuals (bag equality) and hash
// aggregation with bound inputs -- across
// batch-boundary sizes, NULL-heavy data, mixed-type columns, $n slots,
// arithmetic terms and keys, special doubles, and the memory-cap spill
// degradation. Also unit-tests the join-key encoder against the tuple
// key encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/budget.h"
#include "base/rng.h"
#include "exec/aggregate.h"
#include "exec/eval.h"
#include "exec/join_internal.h"
#include "exec/keys.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::AggFunc;
using exec::AggSpec;
using exec::AntiJoin;
using exec::BatchMode;
using exec::ExecContext;
using exec::FullOuterJoin;
using exec::GeneralizedProjection;
using exec::GroupBySpec;
using exec::InnerJoin;
using exec::LeftOuterJoin;
using exec::OperatorStats;
using exec::RightOuterJoin;
using exec::Select;
using exec::SemiJoin;
using exec::SpillConfig;

Value I(int64_t v) { return Value::Int(v); }
Value D(double v) { return Value::Double(v); }
Value S(std::string v) { return Value::String(std::move(v)); }
Value N() { return Value::Null(); }

ExecContext Optimized() { return ExecContext(); }

ExecContext Reference() {
  ExecContext ctx;
  ctx.batch = BatchMode::kOff;
  return ctx;
}

Relation RandomRel(const std::string& name, int rows, uint64_t seed,
                   int64_t domain = 6, double null_fraction = 0.25) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = domain;
  opt.null_fraction = null_fraction;
  return MakeRandomRelation(name, {"a", "b"}, opt, &rng);
}

// ---------------------------------------------------------------------------
// Bound predicates: exact-order equality with the reference Select across
// predicate shapes and batch-boundary sizes.
// ---------------------------------------------------------------------------

void ExpectSelectExactlyMatches(const Relation& r, const Predicate& p) {
  StatusOr<Relation> ref = Select(r, p, Reference());
  StatusOr<Relation> col = Select(r, p, Optimized());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(ref->NumRows(), col->NumRows()) << p.ToString();
  // Serial optimized Select keeps the exact reference order, not just the
  // bag.
  for (int64_t i = 0; i < ref->NumRows(); ++i) {
    for (size_t c = 0; c < ref->row(i).values.size(); ++c) {
      EXPECT_TRUE(Value::IdentityEquals(ref->row(i).values[c],
                                        col->row(i).values[c]))
          << p.ToString() << " row " << i;
    }
    EXPECT_TRUE(std::ranges::equal(ref->row(i).vids, col->row(i).vids));
  }
}

TEST(ColumnarSelectTest, PredicateShapesMatchReference) {
  Relation r = RandomRel("ra", 300, 7);
  std::vector<Predicate> preds;
  preds.emplace_back(MakeAtom("ra", "a", CmpOp::kLt, "ra", "b"));
  preds.emplace_back(MakeConstAtom("ra", "a", CmpOp::kGe, I(3)));
  preds.emplace_back(MakeConstAtom("ra", "a", CmpOp::kNe, D(2.0)));
  preds.emplace_back(MakeIsNullAtom("ra", "a", /*negated=*/false));
  preds.emplace_back(MakeIsNullAtom("ra", "b", /*negated=*/true));
  preds.push_back(Predicate::True());
  preds.emplace_back(MakeTautologyAtom());
  // Comparison against a NULL constant is never TRUE (folded at bind).
  preds.emplace_back(MakeConstAtom("ra", "a", CmpOp::kEq, N()));
  // Unresolvable column: Scalar::Eval yields NULL, the binder folds it.
  preds.emplace_back(MakeAtom("ra", "a", CmpOp::kEq, "zz", "q"));
  preds.emplace_back(MakeIsNullAtom("zz", "q", /*negated=*/false));
  // Arithmetic operand: evaluated per row through the bound term.
  {
    Predicate p;
    p.AddAtom(Atom{Atom::Kind::kCompare,
                   Scalar::Arith(ArithOp::kAdd, Scalar::Column("ra", "a"),
                                 Scalar::Const(I(1))),
                   CmpOp::kLe, Scalar::Column("ra", "b")});
    preds.push_back(p);
  }
  // Conjunction mixing plain and arithmetic atoms.
  {
    Predicate p(MakeConstAtom("ra", "a", CmpOp::kGt, I(0)));
    p.AddAtom(Atom{Atom::Kind::kCompare,
                   Scalar::Arith(ArithOp::kMul, Scalar::Column("ra", "b"),
                                 Scalar::Const(I(2))),
                   CmpOp::kGt, Scalar::Column("ra", "a")});
    preds.push_back(p);
  }
  // Arithmetic on both sides, division by zero (NULL) included.
  preds.emplace_back(Atom{
      Atom::Kind::kCompare,
      Scalar::Arith(ArithOp::kAdd, Scalar::Column("ra", "a"),
                    Scalar::Const(I(1))),
      CmpOp::kLe,
      Scalar::Arith(ArithOp::kMul, Scalar::Column("ra", "b"),
                    Scalar::Const(I(2)))});
  preds.emplace_back(Atom{
      Atom::Kind::kCompare,
      Scalar::Arith(ArithOp::kDiv, Scalar::Column("ra", "b"),
                    Scalar::Column("ra", "a")),
      CmpOp::kGe,
      Scalar::Arith(ArithOp::kSub, Scalar::Column("ra", "a"),
                    Scalar::Column("zz", "q"))});
  // Arithmetic over constants folds; arithmetic IS NULL tests the term.
  preds.emplace_back(Atom{Atom::Kind::kCompare,
                          Scalar::Arith(ArithOp::kAdd, Scalar::Const(I(1)),
                                        Scalar::Const(I(2))),
                          CmpOp::kGt, Scalar::Column("ra", "a")});
  preds.emplace_back(Atom{Atom::Kind::kIsNull,
                          Scalar::Arith(ArithOp::kDiv,
                                        Scalar::Column("ra", "a"),
                                        Scalar::Column("ra", "b")),
                          CmpOp::kEq, nullptr});
  // Unsubstituted $n slots evaluate to NULL: a comparison with one is
  // never TRUE, `$1 IS NULL` always is, and arithmetic over one is NULL.
  preds.emplace_back(Atom{Atom::Kind::kCompare, Scalar::Column("ra", "a"),
                          CmpOp::kEq, Scalar::Param(0)});
  preds.emplace_back(
      Atom{Atom::Kind::kIsNull, Scalar::Param(1), CmpOp::kEq, nullptr});
  preds.emplace_back(
      Atom{Atom::Kind::kIsNotNull, Scalar::Param(1), CmpOp::kEq, nullptr});
  preds.emplace_back(Atom{Atom::Kind::kCompare,
                          Scalar::Arith(ArithOp::kAdd,
                                        Scalar::Column("ra", "a"),
                                        Scalar::Param(0)),
                          CmpOp::kNe, Scalar::Column("ra", "b")});
  for (const Predicate& p : preds) ExpectSelectExactlyMatches(r, p);
}

TEST(ColumnarSelectTest, BatchBoundarySizesMatchReference) {
  Predicate p(MakeAtom("ra", "a", CmpOp::kLe, "ra", "b"));
  for (int rows : {0, 1, 127, 128, 2047, 2048, 2049, 4097}) {
    ExpectSelectExactlyMatches(RandomRel("ra", rows, 11 + rows), p);
  }
}

TEST(ColumnarSelectTest, MixedTypeColumnsMatchReference) {
  // One column holding ints, doubles, strings and NULLs in one batch:
  // forces the kMixed per-value path and the typed-incomparable rules.
  Relation r = MakeRelation("ra", {"a", "b"},
                            {{I(1), I(1)},
                             {D(1.0), S("1")},
                             {S("x"), S("x")},
                             {N(), I(0)},
                             {D(0.5), D(0.25)},
                             {I(-3), D(-3.0)}});
  ExpectSelectExactlyMatches(r, Predicate(MakeAtom("ra", "a", CmpOp::kEq,
                                                   "ra", "b")));
  ExpectSelectExactlyMatches(r, Predicate(MakeAtom("ra", "a", CmpOp::kLt,
                                                   "ra", "b")));
  ExpectSelectExactlyMatches(r, Predicate(MakeConstAtom("ra", "a", CmpOp::kEq,
                                                        S("x"))));
  // Arithmetic on both sides over mixed types (a string operand yields
  // NULL), and a $n slot against a mixed column.
  auto arith = [](ArithOp op, const std::string& col, Value k) {
    return Scalar::Arith(op, Scalar::Column("ra", col),
                         Scalar::Const(std::move(k)));
  };
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLt, CmpOp::kGe}) {
    ExpectSelectExactlyMatches(
        r, Predicate(Atom{Atom::Kind::kCompare, arith(ArithOp::kAdd, "a", I(0)),
                          op, arith(ArithOp::kMul, "b", D(1.0))}));
  }
  ExpectSelectExactlyMatches(
      r, Predicate(Atom{Atom::Kind::kCompare, Scalar::Param(0), CmpOp::kLe,
                        Scalar::Column("ra", "a")}));

  // Typed int64 against double columns past 2^53 compare exactly:
  // int(2^53+1) equals neither double(2^53) nor the constant 2^53.0.
  const int64_t two53 = int64_t{1} << 53;
  const double d53 = static_cast<double>(two53);
  Relation typed = MakeRelation("ra", {"a", "b"},
                                {{I(two53), D(d53)},
                                 {I(two53 + 1), D(d53)},
                                 {I(2 * two53), D(2 * d53)},
                                 {I(3), D(2.5)}});
  Predicate eq(MakeAtom("ra", "a", CmpOp::kEq, "ra", "b"));
  EXPECT_EQ(Select(typed, eq, Optimized())->NumRows(), 2);
  ExpectSelectExactlyMatches(typed, eq);
  for (CmpOp op : {CmpOp::kLt, CmpOp::kGt, CmpOp::kNe}) {
    ExpectSelectExactlyMatches(typed,
                               Predicate(MakeAtom("ra", "b", op, "ra", "a")));
    ExpectSelectExactlyMatches(typed,
                               Predicate(MakeConstAtom("ra", "a", op, D(d53))));
    ExpectSelectExactlyMatches(
        typed, Predicate(MakeConstAtom("ra", "b", op, I(two53 + 1))));
  }
  EXPECT_EQ(Select(typed, Predicate(MakeConstAtom("ra", "a", CmpOp::kEq,
                                                  D(d53))),
                   Optimized())
                ->NumRows(),
            1);
  // Arithmetic keeps the exact rule: int + 0 stays int, int * 1.0 rounds
  // to a double first.
  for (CmpOp op : {CmpOp::kEq, CmpOp::kLt, CmpOp::kNe}) {
    ExpectSelectExactlyMatches(
        typed, Predicate(Atom{Atom::Kind::kCompare,
                              arith(ArithOp::kAdd, "a", I(0)), op,
                              arith(ArithOp::kSub, "b", I(0))}));
    ExpectSelectExactlyMatches(
        typed, Predicate(Atom{Atom::Kind::kCompare,
                              arith(ArithOp::kMul, "a", D(1.0)), op,
                              Scalar::Column("ra", "b")}));
  }
}

TEST(ColumnarSelectTest, OnlyTheReferenceRunsRowAtATime) {
  Predicate p(MakeConstAtom("ra", "a", CmpOp::kGe, I(2)));
  for (int rows : {16, 500}) {
    Relation r = RandomRel("ra", rows, 3);
    OperatorStats st;
    ExecContext ctx;
    ctx.stats = &st;
    ASSERT_TRUE(Select(r, p, ctx).ok());
    EXPECT_GT(st.batches, 0u) << rows << " rows";
    OperatorStats ref_st;
    ExecContext ref = Reference();
    ref.stats = &ref_st;
    ASSERT_TRUE(Select(r, p, ref).ok());
    EXPECT_EQ(ref_st.batches, 0u);
  }
}

// ---------------------------------------------------------------------------
// Joins: optimized vs reference bag equality on every flavor.
// ---------------------------------------------------------------------------

Predicate EqA() { return Predicate(MakeAtom("ra", "a", CmpOp::kEq, "rb", "a")); }

Predicate EqAWithResidual() {
  return Predicate::And(EqA(),
                        Predicate(MakeAtom("ra", "b", CmpOp::kLt, "rb", "b")));
}

TEST(ColumnarJoinTest, AllFlavorsMatchReference) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Relation a = RandomRel("ra", 90, seed);
    Relation b = RandomRel("rb", 70, seed + 50);
    for (const Predicate& p : {EqA(), EqAWithResidual()}) {
      EXPECT_TRUE(Relation::BagEquals(*InnerJoin(a, b, p, Reference()),
                                      *InnerJoin(a, b, p, Optimized())));
      EXPECT_TRUE(Relation::BagEquals(*LeftOuterJoin(a, b, p, Reference()),
                                      *LeftOuterJoin(a, b, p, Optimized())));
      EXPECT_TRUE(Relation::BagEquals(*RightOuterJoin(a, b, p, Reference()),
                                      *RightOuterJoin(a, b, p, Optimized())));
      EXPECT_TRUE(Relation::BagEquals(*FullOuterJoin(a, b, p, Reference()),
                                      *FullOuterJoin(a, b, p, Optimized())));
      EXPECT_TRUE(Relation::BagEquals(*SemiJoin(a, b, p, Reference()),
                                      *SemiJoin(a, b, p, Optimized())));
      EXPECT_TRUE(Relation::BagEquals(*AntiJoin(a, b, p, Reference()),
                                      *AntiJoin(a, b, p, Optimized())));
    }
  }
}

TEST(ColumnarJoinTest, BatchBoundarySizesMatchReference) {
  for (int rows : {1, 127, 128, 2049}) {
    Relation a = RandomRel("ra", rows, 31 + rows, /*domain=*/16);
    Relation b = RandomRel("rb", rows, 77 + rows, /*domain=*/16);
    EXPECT_TRUE(Relation::BagEquals(*InnerJoin(a, b, EqA(), Reference()),
                                    *InnerJoin(a, b, EqA(), Optimized())))
        << rows << " rows";
  }
}

TEST(ColumnarJoinTest, MultiColumnAndMixedTypeKeysMatchReference) {
  // Keys spanning two columns with cross-type int/double values: the
  // binary key encoding must induce the same partition as comparison.
  Relation a = MakeRelation("ra", {"a", "b"},
                            {{I(1), I(2)},
                             {D(1.0), I(2)},
                             {I(1), D(2.0)},
                             {S("1"), I(2)},
                             {N(), I(2)},
                             {D(0.5), S("k")}});
  Relation b = MakeRelation("rb", {"a", "b"},
                            {{I(1), I(2)},
                             {D(1.0), D(2.0)},
                             {S("1"), I(2)},
                             {D(0.5), S("k")},
                             {I(1), N()}});
  Predicate p = Predicate::And(
      EqA(), Predicate(MakeAtom("ra", "b", CmpOp::kEq, "rb", "b")));
  EXPECT_TRUE(Relation::BagEquals(*InnerJoin(a, b, p, Reference()),
                                  *InnerJoin(a, b, p, Optimized())));
  EXPECT_TRUE(Relation::BagEquals(*FullOuterJoin(a, b, p, Reference()),
                                  *FullOuterJoin(a, b, p, Optimized())));
}

TEST(ColumnarJoinTest, ArithmeticKeyRunsOnTheHashCore) {
  // a.a + 1 = b.a separates as an equi-key that is not a plain column: the
  // key term is evaluated into a gathered column, so the join still runs
  // on the hash core and agrees with nested loops.
  Relation a = RandomRel("ra", 200, 5, /*domain=*/8, /*null_fraction=*/0.1);
  Relation b = RandomRel("rb", 200, 6, /*domain=*/8, /*null_fraction=*/0.1);
  Predicate p;
  p.AddAtom(Atom{Atom::Kind::kCompare,
                 Scalar::Arith(ArithOp::kAdd, Scalar::Column("ra", "a"),
                               Scalar::Const(I(1))),
                 CmpOp::kEq, Scalar::Column("rb", "a")});
  OperatorStats st;
  ExecContext ctx = Optimized();
  ctx.stats = &st;
  StatusOr<Relation> forced = InnerJoin(a, b, p, ctx);
  ASSERT_TRUE(forced.ok());
  EXPECT_TRUE(st.hash_path);
  // The reference evaluator runs the same join as nested loops.
  OperatorStats ref_st;
  ExecContext ref = Reference();
  ref.stats = &ref_st;
  StatusOr<Relation> reference = InnerJoin(a, b, p, ref);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(ref_st.hash_path);
  EXPECT_TRUE(Relation::BagEquals(*reference, *forced));
}

// Rows keyed on a (small domain, some NULL) whose b cycles through the
// values the residual comparisons must get exactly right: int/double past
// 2^53, signed zeros, NaN, NULL and a string.
Relation SpecialValueRel(const std::string& name, int rows, int offset) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> specials = {
      I(two53 + 1), D(static_cast<double>(two53)), D(-0.0), D(0.0), I(0),
      D(nan),       N(),                           I(-2),   D(2.5), S("s")};
  std::vector<std::vector<Value>> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back({i % 5 == 4 ? N() : I(i % 3),
                    specials[static_cast<size_t>(i + offset) %
                             specials.size()]});
  }
  return MakeRelation(name, {"a", "b"}, data);
}

TEST(ColumnarJoinTest, BoundResidualsMatchNestedLoopsOnEveryFlavor) {
  auto col = [](const std::string& rel) { return Scalar::Column(rel, "b"); };
  auto cmp = [](ScalarPtr l, CmpOp op, ScalarPtr r) {
    return Atom{Atom::Kind::kCompare, std::move(l), op, std::move(r)};
  };
  std::vector<Predicate> residuals;
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kGe}) {
    // Not separable (both sides read rb), so it stays residual.
    residuals.emplace_back(cmp(
        col("ra"), op,
        Scalar::Arith(ArithOp::kAdd, col("rb"), Scalar::Column("rb", "a"))));
    residuals.emplace_back(cmp(col("ra"), op, col("rb")));
  }
  residuals.emplace_back(cmp(
      Scalar::Arith(ArithOp::kMul, col("ra"), Scalar::Const(D(1.0))),
      CmpOp::kLe,
      Scalar::Arith(ArithOp::kSub, col("rb"), Scalar::Const(I(0)))));
  residuals.emplace_back(MakeIsNullAtom("rb", "b", /*negated=*/false));
  {
    Predicate p(MakeIsNullAtom("ra", "b", /*negated=*/true));
    p.AddAtom(cmp(col("rb"), CmpOp::kGt, Scalar::Const(D(-1.0))));
    residuals.push_back(p);
  }
  Relation a = SpecialValueRel("ra", 40, 0);
  Relation b = SpecialValueRel("rb", 30, 3);
  for (const Predicate& res : residuals) {
    Predicate p = Predicate::And(EqA(), res);
    ExecContext opt = Optimized();
    OperatorStats st;
    opt.stats = &st;
    const std::string what = p.ToString();
    EXPECT_TRUE(Relation::BagEquals(*InnerJoin(a, b, p, Reference()),
                                    *InnerJoin(a, b, p, opt)))
        << what;
    EXPECT_TRUE(st.hash_path) << what;
    opt.stats = nullptr;
    EXPECT_TRUE(Relation::BagEquals(*LeftOuterJoin(a, b, p, Reference()),
                                    *LeftOuterJoin(a, b, p, opt)))
        << what;
    EXPECT_TRUE(Relation::BagEquals(*RightOuterJoin(a, b, p, Reference()),
                                    *RightOuterJoin(a, b, p, opt)))
        << what;
    EXPECT_TRUE(Relation::BagEquals(*FullOuterJoin(a, b, p, Reference()),
                                    *FullOuterJoin(a, b, p, opt)))
        << what;
    EXPECT_TRUE(Relation::BagEquals(*SemiJoin(a, b, p, Reference()),
                                    *SemiJoin(a, b, p, opt)))
        << what;
    EXPECT_TRUE(Relation::BagEquals(*AntiJoin(a, b, p, Reference()),
                                    *AntiJoin(a, b, p, opt)))
        << what;
  }
}

TEST(ColumnarJoinTest, SpillUnderMemoryCapMatchesUncapped) {
  Relation a = RandomRel("ra", 400, 21, /*domain=*/12);
  Relation b = RandomRel("rb", 400, 22, /*domain=*/12);
  Relation uncapped = *InnerJoin(a, b, EqAWithResidual(), Reference());
  ResourceBudget budget;
  budget.WithMaxMemory(4 * 1024);
  SpillConfig spill;
  ExecContext ctx = Optimized();
  ctx.budget = &budget;
  ctx.spill = &spill;
  OperatorStats st;
  ctx.stats = &st;
  StatusOr<Relation> capped = InnerJoin(a, b, EqAWithResidual(), ctx);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_TRUE(Relation::BagEquals(uncapped, *capped));
  EXPECT_TRUE(st.spilled);
  EXPECT_EQ(budget.memory_charged(), 0u);  // all charges unwound
}

TEST(ColumnarJoinTest, MemoryCapWithoutSpillFailsCleanly) {
  Relation a = RandomRel("ra", 300, 31, /*domain=*/4);
  Relation b = RandomRel("rb", 300, 32, /*domain=*/4);
  ResourceBudget budget;
  budget.WithMaxMemory(512);
  ExecContext ctx = Optimized();
  ctx.budget = &budget;
  StatusOr<Relation> r = InnerJoin(a, b, EqA(), ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.memory_charged(), 0u);
}

// ---------------------------------------------------------------------------
// Special double keys (the key-canonicalization regression suite): hash
// equality must agree with comparison equality for -0.0 / +0.0, NaN, and
// int-valued doubles.
// ---------------------------------------------------------------------------

TEST(SpecialDoubleKeyTest, HashJoinMatchesNestedLoopOnSignedZeroAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation a = MakeRelation("ra", {"a", "b"},
                            {{D(-0.0), I(1)},
                             {D(0.0), I(2)},
                             {I(0), I(3)},
                             {D(nan), I(4)},
                             {D(-nan), I(5)},
                             {D(9007199254740993.0), I(6)},
                             {I(5), I(7)}});
  Relation b = MakeRelation("rb", {"a", "c"},
                            {{D(0.0), I(10)},
                             {D(-0.0), I(11)},
                             {I(0), I(12)},
                             {D(nan), I(13)},
                             {D(9007199254740992.0), I(14)},
                             {D(5.0), I(15)}});
  // The reference evaluator runs nested loops, whose Value::Compare is the
  // semantic ground truth.
  Relation nl = *InnerJoin(a, b, EqA(), Reference());
  // -0.0, +0.0 and the int 0 all match each other (3x3) plus NaN pairs
  // (2x1) plus 5 = 5.0: the canonicalized key encoding must reproduce
  // exactly this bag on the hash core.
  EXPECT_TRUE(Relation::BagEquals(nl, *InnerJoin(a, b, EqA(), Optimized())));
  EXPECT_TRUE(Relation::BagEquals(nl, *InnerJoin(a, b, EqA())));
}

TEST(SpecialDoubleKeyTest, MixedIntDoubleKeysPast2To53MatchNestedLoops) {
  // Keys mixing ints, equal doubles, fractions, NULLs, NaN, and an int
  // past 2^53 beside the double it rounds to: the hash core's key bytes
  // must state the reference nested loops' exact equality partition.
  // 1 ~ 1.0 gives 2x2 pairs, 2^54 ~ 2^54.0 another 2x2, NaN 1;
  // int(2^53+1) matches nothing, although it casts to double(2^53).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t two53 = int64_t{1} << 53;
  Relation a = MakeRelation(
      "ra", {"a"},
      {{I(1)}, {D(1.0)}, {D(1.5)}, {I(two53 * 2)},
       {D(static_cast<double>(two53 * 2))}, {N()}, {D(nan)}, {I(two53 + 1)}});
  Relation b = MakeRelation(
      "rb", {"a"},
      {{D(1.0)}, {I(1)}, {I(two53 * 2)}, {D(static_cast<double>(two53 * 2))},
       {N()}, {D(nan)}, {D(static_cast<double>(two53))}});
  Relation nl = *InnerJoin(a, b, EqA(), Reference());
  EXPECT_EQ(nl.NumRows(), 9);
  EXPECT_TRUE(Relation::BagEquals(nl, *InnerJoin(a, b, EqA(), Optimized())));
}

TEST(SpecialDoubleKeyTest, ValueHashAgreesWithEquality) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value::Compare(D(-0.0), D(0.0)), 0);
  EXPECT_EQ(D(-0.0).Hash(), D(0.0).Hash());
  EXPECT_EQ(Value::Compare(D(5.0), I(5)), 0);
  EXPECT_EQ(D(5.0).Hash(), I(5).Hash());
  EXPECT_EQ(Value::Compare(D(nan), D(nan)), 0);
  EXPECT_EQ(D(nan).Hash(), D(-nan).Hash());
  // NaN sorts after every non-NaN and never equals one.
  EXPECT_GT(Value::Compare(D(nan), D(1e308)), 0);
  EXPECT_NE(Value::Compare(D(nan), I(0)), 0);
}

TEST(KeyEncodingTest, BatchKeysMatchTheTupleEncoding) {
  // One encoding, one emitter per value: the streaming hash must hash
  // exactly the bytes KeyColumns::Append builds, and a non-NULL join key
  // must be the bytes EncodeTupleKey builds for the same values -- across
  // every value type, NULLs, NaN payloads, signed zero, integral doubles
  // and an arithmetic key term.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation r = MakeRelation("r", {"i", "d", "s", "m"},
                            {{I(7), D(0.5), S("ab"), I(1)},
                             {N(), D(-0.0), S(""), D(1.0)},
                             {I(-3), D(nan), N(), S("1")},
                             {I(9007199254740993), D(4.0), S("x"), N()}});
  auto col = [](const char* name) { return Scalar::Column("r", name); };
  ScalarPtr i_plus_1 = Scalar::Arith(ArithOp::kAdd, col("i"),
                                     Scalar::Const(I(1)));
  const std::vector<std::vector<ScalarPtr>> inputs = {
      {col("i")}, {col("d")}, {col("s")}, {col("m")},
      {col("i"), col("d"), col("s"), col("m")}, {col("d"), i_plus_1}};
  int keyed = 0;
  for (size_t in = 0; in < inputs.size(); ++in) {
    const exec::internal::KeyColumns kc(inputs[in], r);
    for (int64_t i = 0; i < r.NumRows(); ++i) {
      // The key terms' values, through the reference evaluator.
      OwnedTuple vals;
      std::vector<int> idx;
      bool any_null = false;
      for (const ScalarPtr& k : inputs[in]) {
        idx.push_back(static_cast<int>(vals.values.size()));
        vals.values.push_back(k->Eval(r.row(i), r.schema()));
        any_null = any_null || vals.values.back().is_null();
      }
      std::string key;
      uint64_t h = 0;
      bool has_key = kc.Append(i, &key);
      EXPECT_EQ(kc.Hash(i, &h), has_key) << "input " << in << " row " << i;
      EXPECT_EQ(has_key, !any_null) << "input " << in << " row " << i;
      if (!has_key) continue;
      ++keyed;
      EXPECT_EQ(h, exec::HashKeyBytes(key)) << "input " << in << " row " << i;
      EXPECT_EQ(key + '#', exec::EncodeTupleKey(vals, idx, {}))
          << "input " << in << " row " << i;
    }
  }
  EXPECT_EQ(keyed, 3 + 4 + 3 + 3 + 1 + 3);
  // Key classes: 1 == 1.0 and -0.0 == 0, but a string never equals a number.
  EXPECT_EQ(exec::EncodeTupleKey(r.row(0), {3}, {}),
            exec::EncodeTupleKey(r.row(1), {3}, {}));
  EXPECT_NE(exec::EncodeTupleKey(r.row(0), {3}, {}),
            exec::EncodeTupleKey(r.row(2), {3}, {}));
}

// ---------------------------------------------------------------------------
// Aggregation: columnar group-by parity.
// ---------------------------------------------------------------------------

AggSpec Agg(AggFunc f, ScalarPtr in, std::string name, bool distinct = false) {
  AggSpec s;
  s.func = f;
  s.distinct = distinct;
  s.input = std::move(in);
  s.out_rel = "g";
  s.out_name = std::move(name);
  return s;
}

TEST(ColumnarAggTest, GroupByMatchesReference) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Relation r = RandomRel("ra", 250, seed);
    GroupBySpec spec;
    spec.group_cols = {Attribute{"ra", "a"}};
    spec.aggs.push_back(Agg(AggFunc::kCountStar, nullptr, "n"));
    spec.aggs.push_back(Agg(AggFunc::kSum, Scalar::Column("ra", "b"), "s"));
    spec.aggs.push_back(Agg(AggFunc::kMin, Scalar::Column("ra", "b"), "lo"));
    spec.aggs.push_back(Agg(AggFunc::kMax, Scalar::Column("ra", "b"), "hi"));
    spec.aggs.push_back(Agg(AggFunc::kAvg, Scalar::Column("ra", "b"), "m"));
    spec.aggs.push_back(Agg(AggFunc::kCount, Scalar::Column("ra", "b"), "c"));
    OperatorStats st;
    ExecContext forced = Optimized();
    forced.stats = &st;
    StatusOr<Relation> ref = GeneralizedProjection(r, spec, Reference());
    StatusOr<Relation> col = GeneralizedProjection(r, spec, forced);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(col.ok());
    EXPECT_TRUE(Relation::BagEquals(*ref, *col)) << "seed " << seed;
    EXPECT_GT(st.batches, 0u);
  }
}

TEST(ColumnarAggTest, DistinctAggRunsOnTheBatchFeedAndMatches) {
  Relation r = RandomRel("ra", 200, 9);
  for (AggFunc func : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg}) {
    GroupBySpec spec;
    spec.group_cols = {Attribute{"ra", "a"}};
    spec.aggs.push_back(
        Agg(func, Scalar::Column("ra", "b"), "dc", /*distinct=*/true));
    OperatorStats st;
    ExecContext forced = Optimized();
    forced.stats = &st;
    StatusOr<Relation> ref = GeneralizedProjection(r, spec, Reference());
    StatusOr<Relation> col = GeneralizedProjection(r, spec, forced);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(col.ok());
    EXPECT_TRUE(Relation::BagEquals(*ref, *col)) << AggFuncName(func);
    EXPECT_GT(st.batches, 0u);
  }
}

TEST(ColumnarAggTest, GroupKeyNullsAndVidsMatchReference) {
  // NULL group keys form a real group, and vid-keyed grouping
  // (group_vid_rels) must partition identically under the batch key.
  Relation r = RandomRel("ra", 180, 13, /*domain=*/3, /*null_fraction=*/0.4);
  GroupBySpec spec;
  spec.group_cols = {Attribute{"ra", "a"}, Attribute{"ra", "b"}};
  spec.group_vid_rels = {"ra"};
  spec.aggs.push_back(Agg(AggFunc::kCountStar, nullptr, "n"));
  StatusOr<Relation> ref = GeneralizedProjection(r, spec, Reference());
  StatusOr<Relation> col = GeneralizedProjection(r, spec, Optimized());
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE(Relation::BagEquals(*ref, *col));
}

TEST(ColumnarAggTest, ArithmeticAggInputsMatchReference) {
  auto term = [](ArithOp op, ScalarPtr l, ScalarPtr r) {
    return Scalar::Arith(op, std::move(l), std::move(r));
  };
  ScalarPtr a = Scalar::Column("ra", "a");
  ScalarPtr b = Scalar::Column("ra", "b");
  GroupBySpec spec;
  spec.group_cols = {Attribute{"ra", "a"}};
  spec.aggs.push_back(Agg(AggFunc::kSum,
                          term(ArithOp::kAdd,
                               term(ArithOp::kMul, b, Scalar::Const(I(2))), a),
                          "s"));
  spec.aggs.push_back(
      Agg(AggFunc::kMin, term(ArithOp::kSub, b, Scalar::Const(I(1))), "lo"));
  spec.aggs.push_back(Agg(AggFunc::kMax, term(ArithOp::kDiv, b, a), "hi"));
  spec.aggs.push_back(
      Agg(AggFunc::kAvg, term(ArithOp::kDiv, b, Scalar::Const(I(2))), "m"));
  spec.aggs.push_back(Agg(AggFunc::kCount, term(ArithOp::kAdd, a, b), "c"));
  spec.aggs.push_back(Agg(AggFunc::kCountStar, nullptr, "n"));
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Relation r = RandomRel("ra", 230, 70 + seed);
    StatusOr<Relation> ref = GeneralizedProjection(r, spec, Reference());
    ASSERT_TRUE(ref.ok());
    StatusOr<Relation> got = GeneralizedProjection(r, spec, Optimized());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(Relation::BagEquals(*ref, *got)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gsopt
