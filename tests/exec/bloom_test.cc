// Bloom-filter sideways-information-passing suite (exec/bloom.h and its
// integration into every hash-join path). The filter's contract: a
// negative membership answer is definitive (no false negatives ever), a
// NULL key is never inserted or checked, and turning the filter on
// (BloomMode::kForce) must reproduce the filter-free result bag on every
// join flavor and every path of the hash-join core -- in memory and
// spilled -- including when the filter's own allocation fails (degrade to
// filter-free, never a wrong answer).
#include "exec/bloom.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/rng.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::AntiJoin;
using exec::BloomEligible;
using exec::BloomFilter;
using exec::BloomMode;
using exec::ExecContext;
using exec::FullOuterJoin;
using exec::InnerJoin;
using exec::LeftOuterJoin;
using exec::Mgoj;
using exec::OperatorStats;
using exec::RightOuterJoin;
using exec::SemiJoin;
using exec::SpillConfig;

Value I(int64_t v) { return Value::Int(v); }
Value D(double v) { return Value::Double(v); }
Value S(std::string v) { return Value::String(std::move(v)); }
Value N() { return Value::Null(); }

// ---------------------------------------------------------------------------
// Filter unit tests.
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegativesOnRandomHashes) {
  Rng rng(7);
  BloomFilter f;
  f.Init(10000);
  ASSERT_TRUE(f.enabled());
  std::vector<uint64_t> hashes;
  hashes.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    uint64_t h = rng.Next64();
    hashes.push_back(h);
    f.Insert(h);
  }
  for (uint64_t h : hashes) EXPECT_TRUE(f.MayContain(h));
}

TEST(BloomFilterTest, RejectsMostAbsentKeys) {
  Rng rng(8);
  BloomFilter f;
  f.Init(10000);
  for (int i = 0; i < 10000; ++i) f.Insert(rng.Next64());
  // A fresh stream from the same generator is disjoint with overwhelming
  // probability; the 16-bits-per-key sizing targets ~1.6% false positives,
  // so well over 90% of absent keys must be rejected.
  int rejected = 0;
  for (int i = 0; i < 10000; ++i) {
    if (!f.MayContain(rng.Next64())) ++rejected;
  }
  EXPECT_GT(rejected, 9000);
}

TEST(BloomFilterTest, DisabledUntilInit) {
  BloomFilter f;
  EXPECT_FALSE(f.enabled());
  EXPECT_EQ(f.byte_size(), 0u);
  f.Init(100);
  EXPECT_TRUE(f.enabled());
  EXPECT_EQ(f.byte_size(), BloomFilter::BytesFor(100));
}

TEST(BloomFilterTest, BytesForIsMonotoneAndCapped) {
  EXPECT_GT(BloomFilter::BytesFor(1), 0u);
  EXPECT_LE(BloomFilter::BytesFor(1), BloomFilter::BytesFor(1 << 20));
  // The block cap bounds the allocation no matter how large the build
  // side estimate is.
  const uint64_t cap = BloomFilter::kMaxBlocks * BloomFilter::kWordsPerBlock *
                       sizeof(uint64_t);
  EXPECT_EQ(BloomFilter::BytesFor(int64_t{1} << 40), cap);
}

TEST(BloomEligibleTest, ModesAndAutoThresholds) {
  EXPECT_FALSE(BloomEligible(BloomMode::kOff, 100, 1 << 20));
  EXPECT_TRUE(BloomEligible(BloomMode::kForce, 1, 1));
  // kAuto: the probe side must be large enough to amortize the build.
  EXPECT_FALSE(BloomEligible(BloomMode::kAuto, 100, 100));
  EXPECT_TRUE(
      BloomEligible(BloomMode::kAuto, 100, exec::kMinBloomProbeRows));
  // ...and the build side must not dwarf the probe side.
  EXPECT_FALSE(BloomEligible(BloomMode::kAuto, 5 * 4096, 4096));
  EXPECT_TRUE(BloomEligible(BloomMode::kAuto, 4 * 4096, 4096));
  // An empty build side has nothing to filter with.
  EXPECT_FALSE(BloomEligible(BloomMode::kAuto, 0, 1 << 20));
}

// ---------------------------------------------------------------------------
// Join differentials: kForce must reproduce the kOff bag everywhere.
// ---------------------------------------------------------------------------

Relation RandomRel(const std::string& name, int rows, uint64_t seed,
                   int64_t domain, double null_fraction = 0.25) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = domain;
  opt.null_fraction = null_fraction;
  return MakeRandomRelation(name, {"a", "b"}, opt, &rng);
}

Predicate EqA() { return Predicate(MakeAtom("ra", "a", CmpOp::kEq, "rb", "a")); }

ExecContext FilterOff() {
  ExecContext ctx;
  ctx.bloom = BloomMode::kOff;
  return ctx;
}

// The in-memory hash-join core under forced filtering. The spilled variant
// needs per-call budget/config storage, so it is built where it runs.
ExecContext ForcedSerial() {
  ExecContext ctx;
  ctx.bloom = BloomMode::kForce;
  return ctx;
}

template <typename Op>
void CheckAllPathsMatchFilterFree(Op&& op, const char* label) {
  auto reference = op(FilterOff());
  ASSERT_TRUE(reference.ok()) << label << ": " << reference.status().ToString();

  auto serial = op(ForcedSerial());
  ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
  EXPECT_TRUE(Relation::BagEquals(*reference, *serial))
      << label << " (serial) diverges";

  {
    ResourceBudget budget;
    budget.WithMaxMemory(4 * 1024);
    SpillConfig cfg;
    ExecContext ctx;
    ctx.bloom = BloomMode::kForce;
    ctx.budget = &budget;
    ctx.spill = &cfg;
    auto spilled = op(ctx);
    ASSERT_TRUE(spilled.ok()) << label << ": " << spilled.status().ToString();
    EXPECT_TRUE(Relation::BagEquals(*reference, *spilled))
        << label << " (spilled) diverges";
    EXPECT_EQ(budget.memory_charged(), 0u)
        << label << " (spilled) retained a memory charge";
  }
}

TEST(BloomJoinTest, AllFlavorsAllPathsMatchFilterFree) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    // Skewed domains: most probe rows have no build partner, so the filter
    // actually rejects; NULL keys exercise the never-inserted rule.
    Relation a = RandomRel("ra", 300, seed * 2 + 1, 50);
    Relation b = RandomRel("rb", 80, seed * 2 + 2, 12);
    Predicate p = EqA();
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return InnerJoin(a, b, p, ctx); },
        "inner");
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return LeftOuterJoin(a, b, p, ctx); },
        "loj");
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return RightOuterJoin(a, b, p, ctx); },
        "roj");
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return FullOuterJoin(a, b, p, ctx); },
        "foj");
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return SemiJoin(a, b, p, ctx); },
        "semi");
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return AntiJoin(a, b, p, ctx); },
        "anti");
    std::vector<exec::PreservedGroup> groups = {{"ra"}};
    CheckAllPathsMatchFilterFree(
        [&](const ExecContext& ctx) { return Mgoj(a, b, p, groups, ctx); },
        "mgoj");
  }
}

TEST(BloomJoinTest, UnifiedKeyClassesSurviveFiltering) {
  // Int/double key unification (5 == 5.0), the single NaN class, and the
  // -0.0/+0.0 fold all flow through two independent hash computations
  // (materialized build key vs. streaming probe hash); any byte-level
  // disagreement between them would show up here as a dropped match.
  Relation a = MakeRelation(
      "ra", {"a", "b"},
      {{I(5), I(1)},
       {D(5.0), I(2)},
       {D(0.0), I(3)},
       {D(-0.0), I(4)},
       {D(std::nan("1")), I(5)},
       {D(std::nan("2")), I(6)},
       {D(2.5), I(7)},
       {S("k"), I(8)},
       {N(), I(9)}});
  Relation b = MakeRelation(
      "rb", {"a", "b"},
      {{D(5.0), I(10)},
       {I(5), I(11)},
       {D(-0.0), I(12)},
       {D(std::nan("3")), I(13)},
       {I(7), I(14)},
       {S("k"), I(15)},
       {N(), I(16)}});
  Predicate p = EqA();
  CheckAllPathsMatchFilterFree(
      [&](const ExecContext& ctx) { return InnerJoin(a, b, p, ctx); },
      "unified-inner");
  CheckAllPathsMatchFilterFree(
      [&](const ExecContext& ctx) { return FullOuterJoin(a, b, p, ctx); },
      "unified-foj");
}

TEST(BloomJoinTest, StatsCountChecksRejectsAndFalsePositives) {
  // Disjoint key domains: every probe is checked, (almost) every probe is
  // rejected, and any filter pass-through shows up as a find-miss counted
  // as a false positive.
  Relation a = RandomRel("ra", 400, 21, 1000, 0.2);
  Relation b = RandomRel("rb", 100, 22, 50, 0.0);
  OperatorStats st;
  ExecContext ctx = ForcedSerial();
  ctx.stats = &st;
  ASSERT_TRUE(InnerJoin(a, b, EqA(), ctx).ok());
  EXPECT_TRUE(st.bloom);
  // Every non-NULL probe row is checked exactly once: the check count is
  // the probe count (NULL keys were never hashed into the filter).
  EXPECT_EQ(st.bloom_checks, st.probe_rows);
  EXPECT_GT(st.bloom_checks, 0u);
  EXPECT_GT(st.bloom_rejects, 0u);
  EXPECT_LE(st.bloom_false_positives, st.bloom_checks - st.bloom_rejects);
}

TEST(BloomJoinTest, OffModeNeverBuildsAFilter) {
  Relation a = RandomRel("ra", 300, 31, 40);
  Relation b = RandomRel("rb", 60, 32, 10);
  OperatorStats st;
  ExecContext ctx = FilterOff();
  ctx.stats = &st;
  ASSERT_TRUE(InnerJoin(a, b, EqA(), ctx).ok());
  EXPECT_FALSE(st.bloom);
  EXPECT_EQ(st.bloom_checks, 0u);
}

TEST(BloomJoinTest, FailedFilterAllocationDegradesToFilterFree) {
  Relation a = RandomRel("ra", 300, 41, 40);
  Relation b = RandomRel("rb", 60, 42, 10);
  Relation reference = *InnerJoin(a, b, EqA(), FilterOff());

  // The filter's reservation is the join's first kAlloc probe;
  // max_faults=1 fires exactly there and nowhere else. The join must run
  // to a correct answer with the filter silently disabled.
  FaultInjector::Options fo;
  fo.period = 1;
  fo.site_mask = FaultInjector::MaskOf({FaultSite::kAlloc});
  fo.max_faults = 1;
  FaultInjector fault(fo);
  OperatorStats st;
  ExecContext ctx = ForcedSerial();
  ctx.fault = &fault;
  ctx.stats = &st;
  auto got = InnerJoin(a, b, EqA(), ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(fault.fired_total(), 1u);
  EXPECT_FALSE(st.bloom);
  EXPECT_TRUE(Relation::BagEquals(reference, *got));
}

TEST(BloomSpillTest, FilterCutsProbeBytesWrittenToDisk) {
  // Mostly-unmatched probe side: the partitioning-pass filter should keep
  // the bulk of the probe rows off disk entirely.
  Relation a = RandomRel("ra", 500, 51, 2000, 0.0);
  Relation b = RandomRel("rb", 120, 52, 60, 0.0);
  Predicate p = EqA();

  auto spilled_run = [&](BloomMode mode, OperatorStats* st) {
    ResourceBudget budget;
    budget.WithMaxMemory(4 * 1024);
    SpillConfig cfg;
    ExecContext ctx;
    ctx.bloom = mode;
    ctx.budget = &budget;
    ctx.spill = &cfg;
    ctx.stats = st;
    return InnerJoin(a, b, p, ctx);
  };

  OperatorStats off_stats, on_stats;
  auto off = spilled_run(BloomMode::kOff, &off_stats);
  auto on = spilled_run(BloomMode::kForce, &on_stats);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_TRUE(Relation::BagEquals(*off, *on));
  ASSERT_TRUE(off_stats.spilled);
  ASSERT_TRUE(on_stats.spilled);
  EXPECT_TRUE(on_stats.bloom);
  EXPECT_GT(on_stats.bloom_rejects, 0u);
  // The rejected probe rows were never written: strictly fewer spill
  // bytes than the filter-free run.
  EXPECT_LT(on_stats.spill_bytes_written, off_stats.spill_bytes_written);
}

TEST(BloomJoinTest, AutoModeEngagesOnLargeProbeSides) {
  // 2048-row probe side with a small build side crosses the kAuto
  // thresholds; the default context should pick the filter up without any
  // explicit opt-in.
  Relation a = RandomRel("ra", 2048, 61, 4000, 0.0);
  Relation b = RandomRel("rb", 200, 62, 100, 0.0);
  OperatorStats st;
  ExecContext ctx;  // defaults: BloomMode::kAuto
  ctx.stats = &st;
  ASSERT_TRUE(InnerJoin(a, b, EqA(), ctx).ok());
  EXPECT_TRUE(st.bloom);
  EXPECT_GT(st.bloom_checks, 0u);

  // A small probe side stays filter-free under kAuto.
  Relation a2 = RandomRel("ra", 100, 63, 40, 0.0);
  OperatorStats st2;
  ExecContext ctx2;
  ctx2.stats = &st2;
  ASSERT_TRUE(InnerJoin(a2, b, EqA(), ctx2).ok());
  EXPECT_FALSE(st2.bloom);
}

TEST(BloomJoinTest, AutoModeDisarmsOnHighMatchRates) {
  // Every probe key lands in the build domain, so the filter rejects
  // ~nothing; kAuto must notice at the calibration point and stop paying
  // for checks (bloom_checks freezes near kBloomCalibrateChecks while
  // probe_rows keeps counting). kForce keeps checking to the end.
  Relation a = RandomRel("ra", 8192, 71, 100, 0.0);
  Relation b = RandomRel("rb", 200, 72, 100, 0.0);

  auto run = [&](BloomMode bloom, OperatorStats* st) {
    ExecContext ctx;
    ctx.bloom = bloom;
    ctx.stats = st;
    return InnerJoin(a, b, EqA(), ctx);
  };

  OperatorStats off_st;
  auto reference = run(BloomMode::kOff, &off_st);
  ASSERT_TRUE(reference.ok());

  OperatorStats st;
  auto result = run(BloomMode::kAuto, &st);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(Relation::BagEquals(*reference, *result));
  EXPECT_TRUE(st.bloom);
  EXPECT_GE(st.bloom_checks, exec::kBloomCalibrateChecks);
  EXPECT_LT(st.bloom_checks, st.probe_rows)
      << "filter kept checking after calibration said it cannot win";

  OperatorStats forced;
  ASSERT_TRUE(run(BloomMode::kForce, &forced).ok());
  EXPECT_EQ(forced.bloom_checks, forced.probe_rows);
}

}  // namespace
}  // namespace gsopt
