// Out-of-core degradation: every spilled execution must be bag-equal to
// the unlimited in-memory reference -- inner joins, outer-join padding,
// MGOJ/GS resurrection (whose matched bitmaps must stay globally indexed
// across partitions), and hash aggregation -- and every error path
// (injected ENOSPC, short writes, read faults) must unwind to a clean
// typed Status with zero leaked temp files and zero retained memory
// charges.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/rng.h"
#include "base/spill_file.h"
#include "exec/aggregate.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::ExecContext;
using exec::OperatorStats;
using exec::SpillConfig;

Relation BigTable(const std::string& name, uint64_t seed, int rows,
                  int domain, double null_frac = 0.15) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = domain;
  opt.null_fraction = null_frac;
  return MakeRandomRelation(name, {"a", "b", "c"}, opt, &rng);
}

// Runs `op` twice -- unlimited in-memory reference vs. a tight memory cap
// with spilling -- and checks bag equality plus the post-run hygiene
// invariants (no live temp files, no retained budget charge). Returns the
// spilled run's stats for callers asserting on counters.
template <typename Op>
OperatorStats CheckSpilledMatchesReference(Op&& op, uint64_t cap_bytes) {
  auto reference = op(ExecContext{});
  EXPECT_TRUE(reference.ok()) << reference.status().ToString();

  ResourceBudget budget;
  budget.WithMaxMemory(cap_bytes);
  SpillConfig cfg;
  OperatorStats stats;
  ExecContext ctx;
  ctx.budget = &budget;
  ctx.stats = &stats;
  ctx.spill = &cfg;
  auto spilled = op(ctx);
  EXPECT_TRUE(spilled.ok()) << spilled.status().ToString();
  if (reference.ok() && spilled.ok()) {
    EXPECT_TRUE(Relation::BagEquals(*reference, *spilled));
  }
  EXPECT_TRUE(stats.spilled) << "cap " << cap_bytes
                             << " never tripped; test is vacuous";
  EXPECT_EQ(SpillFile::LiveCount(), 0);
  EXPECT_EQ(budget.memory_charged(), 0u);
  return stats;
}

TEST(SpillJoinTest, InnerJoinSpilledBagEqualsInMemory) {
  Relation a = BigTable("r1", 11, 300, 40);
  Relation b = BigTable("r2", 12, 300, 40);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  OperatorStats st = CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) { return exec::InnerJoin(a, b, p, ctx); },
      4 * 1024);
  EXPECT_GT(st.spill_partitions, 0u);
  EXPECT_GT(st.spill_bytes_written, 0u);
  EXPECT_GT(st.spill_bytes_read, 0u);
}

TEST(SpillJoinTest, ResidualPredicateSurvivesSpill) {
  Relation a = BigTable("r1", 21, 250, 20);
  Relation b = BigTable("r2", 22, 250, 20);
  // Equi-conjunct routes the hash/spill path; the inequality rides as a
  // residual evaluated per candidate pair inside each partition.
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a"),
               MakeAtom("r1", "b", CmpOp::kLt, "r2", "b")});
  CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) { return exec::InnerJoin(a, b, p, ctx); },
      4 * 1024);
}

TEST(SpillJoinTest, OuterJoinPaddingSurvivesSpill) {
  // Skewed domains so both sides have unmatched rows (and NULL keys, which
  // the spill path must skip exactly like the in-memory build).
  Relation a = BigTable("r1", 31, 280, 60, 0.25);
  Relation b = BigTable("r2", 32, 280, 15, 0.25);
  Predicate p({MakeAtom("r1", "b", CmpOp::kEq, "r2", "b")});
  CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::LeftOuterJoin(a, b, p, ctx);
      },
      4 * 1024);
  CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::FullOuterJoin(a, b, p, ctx);
      },
      4 * 1024);
  CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) { return exec::AntiJoin(a, b, p, ctx); },
      4 * 1024);
}

TEST(SpillJoinTest, MgojResurrectionStaysGloballyIndexedAcrossPartitions) {
  // MGOJ's preserved set resurrects the UNMATCHED rows of r1: the matched
  // bitmap is indexed by original row position, so a partition that
  // matches row 250 must not accidentally mark row 0. Bag-comparing
  // against the in-memory reference catches any index translation bug.
  Relation a = BigTable("r1", 41, 260, 50, 0.2);
  Relation b = BigTable("r2", 42, 260, 12, 0.2);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  std::vector<exec::PreservedGroup> groups = {{"r1"}};
  CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::Mgoj(a, b, p, groups, ctx);
      },
      4 * 1024);
}

TEST(SpillJoinTest, IdenticalKeySkewFallsBackToBlockChunking) {
  // Every build row carries the same key: no amount of repartitioning can
  // split it, so the join must terminate via the block-chunked fallback.
  Relation a = MakeRelation("r1", {"a"}, {});
  Relation b = MakeRelation("r2", {"a"}, {});
  for (int i = 0; i < 200; ++i) {
    a.AddBaseRow({Value::Int(7)}, i);
    b.AddBaseRow({Value::Int(7)}, i);
  }
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  OperatorStats st = CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) { return exec::InnerJoin(a, b, p, ctx); },
      2 * 1024);
  EXPECT_GT(st.spill_chunks, 0u) << "skew never reached the chunked path";
}

TEST(SpillAggTest, GroupBySpilledBagEqualsInMemory) {
  Relation r = BigTable("r1", 51, 400, 80, 0.2);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec cnt;
  cnt.func = exec::AggFunc::kCountStar;
  cnt.out_rel = "v";
  cnt.out_name = "n";
  exec::AggSpec sum;
  sum.func = exec::AggFunc::kSum;
  sum.input = Scalar::Column("r1", "b");
  sum.out_rel = "v";
  sum.out_name = "s";
  exec::AggSpec mn;
  mn.func = exec::AggFunc::kMin;
  mn.input = Scalar::Column("r1", "c");
  mn.out_rel = "v";
  mn.out_name = "m";
  spec.aggs = {cnt, sum, mn};
  spec.synthetic_vid = false;  // synthetic vids are ordinals, not stable
                               // across partition orderings
  OperatorStats st = CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::GeneralizedProjection(r, spec, ctx);
      },
      4 * 1024);
  EXPECT_GT(st.spill_partitions, 0u);
}

TEST(SpillAggTest, DistinctAggSpillsByGroupKey) {
  // DISTINCT state partitions cleanly because groups are disjoint across
  // partitions; only a single irreducible group at max depth is fatal.
  Relation r = BigTable("r1", 61, 350, 60, 0.1);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec d;
  d.func = exec::AggFunc::kCount;
  d.distinct = true;
  d.input = Scalar::Column("r1", "b");
  d.out_rel = "v";
  d.out_name = "dc";
  spec.aggs = {d};
  spec.synthetic_vid = false;
  CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::GeneralizedProjection(r, spec, ctx);
      },
      4 * 1024);
}

// The fan-out (8) and depth (3) are fixed in exec/spill.cc. At those
// values an input several partitions' worth over the cap must still
// repartition, so a change to the constants that loses a level shows here.
TEST(SpillRecursionTest, JoinRepartitionsAtDefaultFanOut) {
  Relation a = BigTable("r1", 101, 2000, 1500);
  Relation b = BigTable("r2", 102, 2000, 1500);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  OperatorStats st = CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::LeftOuterJoin(a, b, p, ctx);
      },
      4 * 1024);
  EXPECT_GT(st.spill_recursions, 0u);
  EXPECT_GT(st.spill_partitions, 8u);
}

TEST(SpillRecursionTest, AggregationRepartitionsAtDefaultFanOut) {
  Relation r = BigTable("r1", 111, 3000, 2000, 0.05);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec cnt;
  cnt.func = exec::AggFunc::kCountStar;
  cnt.out_rel = "v";
  cnt.out_name = "n";
  exec::AggSpec sum;
  sum.func = exec::AggFunc::kSum;
  sum.input = Scalar::Column("r1", "b");
  sum.out_rel = "v";
  sum.out_name = "s";
  spec.aggs = {cnt, sum};
  spec.synthetic_vid = false;
  OperatorStats st = CheckSpilledMatchesReference(
      [&](const ExecContext& ctx) {
        return exec::GeneralizedProjection(r, spec, ctx);
      },
      4 * 1024);
  EXPECT_GT(st.spill_recursions, 0u);
  EXPECT_GT(st.spill_partitions, 8u);
}

TEST(SpillFaultTest, MemoryTripWithoutSpillNamesTheCap) {
  Relation a = BigTable("r1", 81, 200, 30);
  Relation b = BigTable("r2", 82, 200, 30);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  ResourceBudget budget;
  budget.WithMaxMemory(1024);
  ExecContext ctx;
  ctx.budget = &budget;  // no spill config: the trip is fatal
  auto r = exec::InnerJoin(a, b, p, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory cap"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(budget.memory_charged(), 0u);
}

// Injected spill-I/O faults at every site: the join must fail with a clean
// typed status (never crash), leak no temp file, and release every memory
// charge. Seeds sweep the fault onto different operations.
TEST(SpillFaultTest, InjectedSpillFaultsUnwindCleanly) {
  Relation a = BigTable("r1", 91, 260, 30);
  Relation b = BigTable("r2", 92, 260, 30);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  const FaultSite sites[] = {FaultSite::kSpillOpen, FaultSite::kSpillWrite,
                             FaultSite::kSpillRead};
  int failures_seen = 0;
  for (FaultSite site : sites) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      FaultInjector::Options o;
      o.seed = seed;
      o.period = 5;
      o.site_mask = FaultInjector::MaskOf({site});
      FaultInjector fi(o);
      ResourceBudget budget;
      budget.WithMaxMemory(4 * 1024);
      SpillConfig cfg;
      ExecContext ctx;
      ctx.budget = &budget;
      ctx.fault = &fi;
      ctx.spill = &cfg;
      auto r = exec::InnerJoin(a, b, p, ctx);
      if (!r.ok()) {
        ++failures_seen;
        EXPECT_TRUE(r.status().code() == StatusCode::kResourceExhausted ||
                    r.status().code() == StatusCode::kUnavailable)
            << FaultSiteName(site) << " seed " << seed << ": "
            << r.status().ToString();
      }
      EXPECT_EQ(SpillFile::LiveCount(), 0)
          << FaultSiteName(site) << " seed " << seed << " leaked a file";
      EXPECT_EQ(budget.memory_charged(), 0u)
          << FaultSiteName(site) << " seed " << seed << " leaked a charge";
    }
  }
  // The spill path runs on every seed (the cap is tight), so faults with
  // period 5 must have landed often.
  EXPECT_GT(failures_seen, 0);
}

TEST(SpillFaultTest, AggregationFaultsUnwindCleanly) {
  Relation r = BigTable("r1", 95, 300, 60, 0.1);
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec cnt;
  cnt.func = exec::AggFunc::kCountStar;
  cnt.out_rel = "v";
  cnt.out_name = "n";
  spec.aggs = {cnt};
  spec.synthetic_vid = false;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FaultInjector::Options o;
    o.seed = seed;
    o.period = 7;
    FaultInjector fi(o);
    ResourceBudget budget;
    budget.WithMaxMemory(2 * 1024);
    SpillConfig cfg;
    ExecContext ctx;
    ctx.budget = &budget;
    ctx.fault = &fi;
    ctx.spill = &cfg;
    auto out = exec::GeneralizedProjection(r, spec, ctx);
    if (!out.ok()) {
      EXPECT_TRUE(out.status().code() == StatusCode::kResourceExhausted ||
                  out.status().code() == StatusCode::kUnavailable)
          << "seed " << seed << ": " << out.status().ToString();
    }
    EXPECT_EQ(SpillFile::LiveCount(), 0) << "seed " << seed;
    EXPECT_EQ(budget.memory_charged(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gsopt
