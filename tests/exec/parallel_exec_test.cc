// Serial-vs-parallel bag-equality property suite: for every operator
// kernel, executing with a multi-lane Executor must produce the same bag
// of tuples as the serial (one-lane) kernels, on randomized null-heavy
// inputs. Covers both join paths (partitioned hash and nested loops),
// outer-join null-padding, generalized-selection resurrection of preserved
// groups, and parallel hash aggregation. The executor's thresholds are
// forced low so the parallel paths actually run on test-sized inputs.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "exec/aggregate.h"
#include "exec/eval.h"
#include "exec/executor.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::AggFunc;
using exec::AggSpec;
using exec::AntiJoin;
using exec::ExecContext;
using exec::Executor;
using exec::FullOuterJoin;
using exec::GeneralizedProjection;
using exec::GeneralizedSelection;
using exec::GroupBySpec;
using exec::InnerJoin;
using exec::LeftOuterJoin;
using exec::Mgoj;
using exec::OuterUnion;
using exec::PreservedGroup;
using exec::Product;
using exec::RightOuterJoin;
using exec::Select;
using exec::SemiJoin;

// 4 lanes, thresholds forced down so ~100-row inputs fan out across many
// small morsels (odd morsel boundaries included).
Executor* TestExecutor() {
  static Executor* ex = [] {
    auto* e = new Executor(4);
    e->set_min_parallel_rows(1);
    e->set_morsel_rows(7);
    return e;
  }();
  return ex;
}

ExecContext ParallelCtx() { return ExecContext{nullptr, nullptr, TestExecutor()}; }

Relation NullHeavy(const std::string& name, int rows, uint64_t seed,
                   int64_t domain = 6, double null_fraction = 0.3) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = domain;
  opt.null_fraction = null_fraction;
  return MakeRandomRelation(name, {"a", "b"}, opt, &rng);
}

// a.a = b.a with residual a.b < b.b: exercises the hash path's key
// encoding, NULL-key skips, and residual evaluation.
Predicate HashableJoinPred() {
  return Predicate::And(
      Predicate(MakeAtom("ra", "a", CmpOp::kEq, "rb", "a")),
      Predicate(MakeAtom("ra", "b", CmpOp::kLt, "rb", "b")));
}

// No separable equi-conjunct: forces the nested-loop path.
Predicate NestedLoopPred() {
  return Predicate(MakeAtom("ra", "a", CmpOp::kLt, "rb", "a"));
}

Predicate SelectPred() {
  return Predicate(MakeAtom("ra", "a", CmpOp::kLt, "ra", "b"));
}

// Selection keeps its input's row order at any lane count (the
// order-aware pass forwards an ORDER BY through it), so the parallel
// output is the serial one row for row, not just bag-equal.
TEST(ParallelExecTest, SelectMatchesSerial) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Relation r = NullHeavy("ra", 211, seed);
    Relation serial = *Select(r, SelectPred());
    Relation parallel = *Select(r, SelectPred(), ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
    ASSERT_EQ(serial.NumRows(), parallel.NumRows()) << "seed " << seed;
    for (int64_t i = 0; i < serial.NumRows(); ++i) {
      ASSERT_EQ(serial.row(i).vids[0], parallel.row(i).vids[0])
          << "seed " << seed << " row " << i;
    }
  }
}

TEST(ParallelExecTest, ProductMatchesSerial) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Relation a = NullHeavy("ra", 53, seed);
    Relation b = NullHeavy("rb", 31, seed + 100);
    Relation serial = *Product(a, b);
    Relation parallel = *Product(a, b, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

TEST(ParallelExecTest, ProductWithEmptySideMatchesSerial) {
  Relation a = NullHeavy("ra", 64, 1);
  Relation b(a.schema(), a.vschema());
  EXPECT_TRUE(
      Relation::BagEquals(*Product(a, b), *Product(a, b, ParallelCtx())));
  EXPECT_TRUE(
      Relation::BagEquals(*Product(b, a), *Product(b, a, ParallelCtx())));
}

TEST(ParallelExecTest, InnerJoinHashPathMatchesSerial) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Relation a = NullHeavy("ra", 157, seed);
    Relation b = NullHeavy("rb", 203, seed + 1000);
    Predicate p = HashableJoinPred();
    Relation serial = *InnerJoin(a, b, p);
    Relation parallel = *InnerJoin(a, b, p, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

TEST(ParallelExecTest, InnerJoinNestedLoopPathMatchesSerial) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Relation a = NullHeavy("ra", 83, seed);
    Relation b = NullHeavy("rb", 61, seed + 1000);
    Predicate p = NestedLoopPred();
    Relation serial = *InnerJoin(a, b, p);
    Relation parallel = *InnerJoin(a, b, p, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

// Outer joins depend on the matched flags collected across lanes: the
// null-padded rows must be identical to serial even though matches are
// found in parallel (a-side flags written by the owning lane, b-side flags
// OR-merged).
TEST(ParallelExecTest, OuterJoinNullPaddingMatchesSerial) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Relation a = NullHeavy("ra", 149, seed, 9, 0.4);
    Relation b = NullHeavy("rb", 181, seed + 2000, 9, 0.4);
    Predicate p = HashableJoinPred();
    ExecContext ctx = ParallelCtx();
    EXPECT_TRUE(Relation::BagEquals(*LeftOuterJoin(a, b, p),
                                    *LeftOuterJoin(a, b, p, ctx)))
        << "LOJ seed " << seed;
    EXPECT_TRUE(Relation::BagEquals(*RightOuterJoin(a, b, p),
                                    *RightOuterJoin(a, b, p, ctx)))
        << "ROJ seed " << seed;
    EXPECT_TRUE(Relation::BagEquals(*FullOuterJoin(a, b, p),
                                    *FullOuterJoin(a, b, p, ctx)))
        << "FOJ seed " << seed;
  }
}

TEST(ParallelExecTest, SemiAndAntiJoinMatchSerial) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Relation a = NullHeavy("ra", 127, seed);
    Relation b = NullHeavy("rb", 113, seed + 3000);
    Predicate p = HashableJoinPred();
    ExecContext ctx = ParallelCtx();
    EXPECT_TRUE(
        Relation::BagEquals(*SemiJoin(a, b, p), *SemiJoin(a, b, p, ctx)))
        << "semi seed " << seed;
    EXPECT_TRUE(
        Relation::BagEquals(*AntiJoin(a, b, p), *AntiJoin(a, b, p, ctx)))
        << "anti seed " << seed;
  }
}

TEST(ParallelExecTest, OuterUnionMatchesSerial) {
  Relation a = NullHeavy("ra", 97, 5);
  Relation b = NullHeavy("rb", 59, 6);
  EXPECT_TRUE(Relation::BagEquals(*OuterUnion(a, b),
                                  *OuterUnion(a, b, ParallelCtx())));
}

// GS resurrection: the per-group difference fans out over r's rows, with
// candidate keys deduplicated across lanes. Null-heavy data makes
// GroupPartAllNull and NULL-valued group keys both occur.
TEST(ParallelExecTest, GeneralizedSelectionResurrectionMatchesSerial) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Relation a = NullHeavy("ra", 23, seed, 5, 0.35);
    Relation b = NullHeavy("rb", 17, seed + 4000, 5, 0.35);
    Relation r = *Product(a, b);
    Predicate p = HashableJoinPred();
    std::vector<PreservedGroup> groups = {PreservedGroup{"ra"},
                                          PreservedGroup{"rb"}};
    Relation serial = *GeneralizedSelection(r, p, groups);
    Relation parallel = *GeneralizedSelection(r, p, groups, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

// GS applied above outer-join padding: all-NULL group parts must not be
// resurrected, in either execution mode.
TEST(ParallelExecTest, GeneralizedSelectionOverOuterJoinMatchesSerial) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Relation a = NullHeavy("ra", 101, seed, 4, 0.3);
    Relation b = NullHeavy("rb", 89, seed + 5000, 4, 0.3);
    Relation r = *FullOuterJoin(a, b, HashableJoinPred());
    Predicate p = SelectPred();
    std::vector<PreservedGroup> groups = {PreservedGroup{"rb"}};
    Relation serial = *GeneralizedSelection(r, p, groups);
    Relation parallel = *GeneralizedSelection(r, p, groups, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

TEST(ParallelExecTest, MgojMatchesSerial) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Relation a = NullHeavy("ra", 131, seed);
    Relation b = NullHeavy("rb", 139, seed + 6000);
    Predicate p = HashableJoinPred();
    std::vector<PreservedGroup> groups = {PreservedGroup{"ra"},
                                          PreservedGroup{"rb"}};
    Relation serial = *Mgoj(a, b, p, groups);
    Relation parallel = *Mgoj(a, b, p, groups, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

GroupBySpec AggSpecOf(AggFunc f, bool distinct = false) {
  AggSpec agg;
  agg.func = f;
  agg.distinct = distinct;
  if (f != AggFunc::kCountStar && f != AggFunc::kCountPresence) {
    agg.input = Scalar::Column("ra", "b");
  }
  if (f == AggFunc::kCountPresence) agg.presence_rel = "ra";
  agg.out_rel = "q";
  agg.out_name = "agg";
  GroupBySpec spec;
  spec.group_cols = {Attribute{"ra", "a"}};
  spec.aggs = {std::move(agg)};
  return spec;
}

TEST(ParallelExecTest, HashAggregationMatchesSerial) {
  for (AggFunc f : {AggFunc::kCountStar, AggFunc::kCount, AggFunc::kSum,
                    AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax,
                    AggFunc::kCountPresence}) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      Relation r = NullHeavy("ra", 223, seed, 11, 0.3);
      GroupBySpec spec = AggSpecOf(f);
      Relation serial = *GeneralizedProjection(r, spec);
      Relation parallel = *GeneralizedProjection(r, spec, ParallelCtx());
      EXPECT_TRUE(Relation::BagEquals(serial, parallel))
          << AggFuncName(f) << " seed " << seed;
    }
  }
}

// DISTINCT aggregates fall back to the serial path even with an executor
// attached (per-lane distinct sets cannot be merged); results must still
// be correct.
TEST(ParallelExecTest, DistinctAggregationStaysCorrectWithExecutor) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Relation r = NullHeavy("ra", 223, seed, 5, 0.2);
    GroupBySpec spec = AggSpecOf(AggFunc::kCount, /*distinct=*/true);
    Relation serial = *GeneralizedProjection(r, spec);
    Relation parallel = *GeneralizedProjection(r, spec, ParallelCtx());
    EXPECT_TRUE(Relation::BagEquals(serial, parallel)) << "seed " << seed;
  }
}

// A row cap must cancel a parallel join mid-production with
// kResourceExhausted, exactly like serial execution.
TEST(ParallelExecTest, RowCapCancelsParallelJoin) {
  Relation a = NullHeavy("ra", 300, 1, 3, 0.0);
  Relation b = NullHeavy("rb", 300, 2, 3, 0.0);
  ResourceBudget budget;
  budget.WithMaxRows(50);
  ExecContext ctx{&budget, nullptr, TestExecutor()};
  auto out = InnerJoin(a, b, Predicate(MakeAtom("ra", "a", CmpOp::kEq, "rb",
                                                "a")),
                       ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

// An already-expired deadline cancels every lane before real work starts.
TEST(ParallelExecTest, ExpiredDeadlineCancelsParallelProduct) {
  Relation a = NullHeavy("ra", 300, 3, 3, 0.0);
  Relation b = NullHeavy("rb", 300, 4, 3, 0.0);
  ResourceBudget budget;
  budget.WithDeadline(ResourceBudget::Clock::now());
  ExecContext ctx{&budget, nullptr, TestExecutor()};
  auto out = Product(a, b, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

// Parallel execution with stats attached merges per-lane counters into the
// shared node: totals must match the serial run's totals for count-exact
// fields.
TEST(ParallelExecTest, LaneStatsMergeMatchesSerialTotals) {
  Relation a = NullHeavy("ra", 157, 7);
  Relation b = NullHeavy("rb", 203, 8);
  Predicate p = HashableJoinPred();
  exec::OperatorStats serial_stats;
  ExecContext sctx{nullptr, &serial_stats};
  ASSERT_TRUE(InnerJoin(a, b, p, sctx).ok());
  exec::OperatorStats par_stats;
  ExecContext pctx{nullptr, &par_stats, TestExecutor()};
  ASSERT_TRUE(InnerJoin(a, b, p, pctx).ok());
  EXPECT_TRUE(par_stats.hash_path);
  EXPECT_EQ(par_stats.rows_in, serial_stats.rows_in);
  EXPECT_EQ(par_stats.rows_out, serial_stats.rows_out);
  EXPECT_EQ(par_stats.build_rows, serial_stats.build_rows);
  EXPECT_EQ(par_stats.probe_rows, serial_stats.probe_rows);
  EXPECT_EQ(par_stats.null_key_skips, serial_stats.null_key_skips);
  EXPECT_EQ(par_stats.residual_evals, serial_stats.residual_evals);
}

}  // namespace
}  // namespace gsopt
