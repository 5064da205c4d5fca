// The external sort operator and its ordering contract: comparator
// properties (NULL lowest, exact int/double unification past 2^53, NaN
// rules), stability, multi-key ASC/DESC, spilled runs with bounded fan-in
// (temp files gone, ledger unwound), and injected ENOSPC / short-write
// degradation to typed errors.
#include "exec/sort.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/rng.h"
#include "base/spill_file.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::CheckSorted;
using exec::CompareValuesTotal;
using exec::ExecContext;
using exec::OperatorStats;
using exec::SortKey;
using exec::SortSpec;
using exec::SpillConfig;

Value I(int64_t v) { return Value::Int(v); }
Value D(double v) { return Value::Double(v); }
Value S(const char* v) { return Value::String(v); }
Value N() { return Value::Null(); }

SortSpec Asc(const std::string& rel, const std::string& col) {
  return {SortKey{Attribute{rel, col}, false}};
}

constexpr int64_t kTwo53 = 9007199254740992;  // 2^53

TEST(CompareValuesTotalTest, NullIsLowest) {
  EXPECT_LT(CompareValuesTotal(N(), I(-100)), 0);
  EXPECT_LT(CompareValuesTotal(N(), D(-1e300)), 0);
  EXPECT_LT(CompareValuesTotal(N(), S("")), 0);
  EXPECT_EQ(CompareValuesTotal(N(), N()), 0);
}

TEST(CompareValuesTotalTest, IntDoubleUnified) {
  EXPECT_EQ(CompareValuesTotal(I(1), D(1.0)), 0);
  EXPECT_LT(CompareValuesTotal(I(1), D(1.5)), 0);
  EXPECT_GT(CompareValuesTotal(I(2), D(1.5)), 0);
  EXPECT_LT(CompareValuesTotal(D(1.5), I(2)), 0);
}

TEST(CompareValuesTotalTest, ExactPastTwo53) {
  // int(2^53 + 1) casts to double as 2^53; the exact comparator must still
  // order it strictly after both int(2^53) and double(2^53).
  EXPECT_GT(CompareValuesTotal(I(kTwo53 + 1), D(static_cast<double>(kTwo53))),
            0);
  EXPECT_LT(CompareValuesTotal(D(static_cast<double>(kTwo53)), I(kTwo53 + 1)),
            0);
  EXPECT_EQ(CompareValuesTotal(I(kTwo53), D(static_cast<double>(kTwo53))), 0);
  // An exactly equal pair past 2^53 is equal, as its key bytes are.
  EXPECT_EQ(
      CompareValuesTotal(I(kTwo53 * 2), D(static_cast<double>(kTwo53 * 2))),
      0);
  // Huge doubles clear every int64.
  EXPECT_LT(CompareValuesTotal(I(INT64_MAX), D(1e300)), 0);
  EXPECT_GT(CompareValuesTotal(I(INT64_MIN), D(-1e300)), 0);
}

TEST(CompareValuesTotalTest, NanGreatestNumberAndEqualsItself) {
  Value nan = D(std::nan(""));
  EXPECT_GT(CompareValuesTotal(nan, D(1e300)), 0);
  EXPECT_GT(CompareValuesTotal(nan, I(INT64_MAX)), 0);
  EXPECT_EQ(CompareValuesTotal(nan, nan), 0);
  // ...but every number, NaN included, orders before every string.
  EXPECT_LT(CompareValuesTotal(nan, S("")), 0);
}

TEST(SortTest, MultiKeyDirectionsAndNullPlacement) {
  Relation r = MakeRelation("r", {"a", "b"},
                            {{I(2), I(1)},
                             {N(), I(9)},
                             {I(1), N()},
                             {I(1), I(5)},
                             {I(2), I(0)}});
  SortSpec spec = {SortKey{Attribute{"r", "a"}, false},
                   SortKey{Attribute{"r", "b"}, true}};
  Relation out = *exec::Sort(r, spec);
  ASSERT_EQ(out.NumRows(), 5);
  EXPECT_TRUE(CheckSorted(out, spec).ok());
  // NULLs are lowest: first under ASC on a; last under DESC on b.
  EXPECT_TRUE(out.row(0).values[0].is_null());
  EXPECT_EQ(out.row(1).values[0].AsInt(), 1);
  EXPECT_EQ(out.row(1).values[1].AsInt(), 5);  // DESC: 5 before NULL
  EXPECT_TRUE(out.row(2).values[1].is_null());
  EXPECT_EQ(out.row(3).values[1].AsInt(), 1);  // a=2: DESC b -> 1, 0
  EXPECT_EQ(out.row(4).values[1].AsInt(), 0);
}

TEST(SortTest, StableOnEqualKeys) {
  // Equal sort keys keep input order: b is a serial number.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back({I(i % 3), I(i)});
  Relation r = MakeRelation("r", {"a", "b"}, rows);
  Relation out = *exec::Sort(r, Asc("r", "a"));
  int64_t prev_a = -1, prev_b = -1;
  for (int64_t i = 0; i < out.NumRows(); ++i) {
    int64_t a = out.row(i).values[0].AsInt();
    int64_t b = out.row(i).values[1].AsInt();
    if (a == prev_a) {
      EXPECT_GT(b, prev_b) << "stability broken at row " << i;
    }
    prev_a = a;
    prev_b = b;
  }
}

TEST(SortTest, MissingAttributeIsInvalidArgument) {
  Relation r = MakeRelation("r", {"a"}, {{I(1)}});
  auto out = exec::Sort(r, Asc("r", "zz"));
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckSortedTest, ReportsFirstViolation) {
  Relation r = MakeRelation("r", {"a"}, {{I(1)}, {I(3)}, {I(2)}});
  Status s = CheckSorted(r, Asc("r", "a"));
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("1..2"), std::string::npos) << s.ToString();
  EXPECT_TRUE(CheckSorted(r, {SortKey{Attribute{"r", "a"}, true}}).code() ==
              StatusCode::kInternal);
}

Relation BigTable(uint64_t seed, int rows) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = 50;
  opt.null_fraction = 0.15;
  return MakeRandomRelation("r1", {"a", "b", "c"}, opt, &rng);
}

TEST(ExternalSortTest, SpilledRunsMatchInMemoryAndCleanUp) {
  Relation r = BigTable(7, 600);
  SortSpec spec = {SortKey{Attribute{"r1", "a"}, false},
                   SortKey{Attribute{"r1", "b"}, true}};
  Relation reference = *exec::Sort(r, spec);

  ResourceBudget budget;
  budget.WithMaxMemory(4 * 1024);
  SpillConfig cfg;
  OperatorStats stats;
  ExecContext ctx;
  ctx.budget = &budget;
  ctx.stats = &stats;
  ctx.spill = &cfg;
  auto spilled = exec::Sort(r, spec, ctx);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_GT(stats.sort_runs, 1u) << "cap never tripped; test is vacuous";
  EXPECT_TRUE(stats.spilled);
  EXPECT_GT(stats.spill_bytes_written, 0u);
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
  EXPECT_EQ(budget.memory_charged(), 0u);
  EXPECT_TRUE(CheckSorted(*spilled, spec).ok());
  // Same rows in the same order, not just the same bag: the external path
  // keeps the stability tie-break through run files.
  ASSERT_EQ(spilled->NumRows(), reference.NumRows());
  for (int64_t i = 0; i < reference.NumRows(); ++i) {
    for (size_t c = 0; c < reference.row(i).values.size(); ++c) {
      EXPECT_TRUE(Value::IdentityEquals(reference.row(i).values[c],
                                        spilled->row(i).values[c]))
          << "row " << i << " col " << c;
    }
  }
}

TEST(ExternalSortTest, ManyRunsTakeExtraMergePasses) {
  Relation r = BigTable(8, 1500);
  ResourceBudget budget;
  budget.WithMaxMemory(1024);  // tiny: dozens of runs, fan-in 8 forces passes
  SpillConfig cfg;
  OperatorStats stats;
  ExecContext ctx;
  ctx.budget = &budget;
  ctx.stats = &stats;
  ctx.spill = &cfg;
  auto out = exec::Sort(r, Asc("r1", "a"), ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(stats.sort_runs, 8u);
  EXPECT_GE(stats.sort_merge_passes, 1u);
  EXPECT_EQ(SpillFile::LiveCount(), 0u);
  EXPECT_TRUE(CheckSorted(*out, Asc("r1", "a")).ok());
}

TEST(ExternalSortTest, MemoryTripWithoutSpillingIsResourceExhausted) {
  Relation r = BigTable(9, 400);
  ResourceBudget budget;
  budget.WithMaxMemory(2 * 1024);
  ExecContext ctx;
  ctx.budget = &budget;  // no SpillConfig: the trip must surface
  auto out = exec::Sort(r, Asc("r1", "a"), ctx);
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.memory_charged(), 0u);
}

TEST(ExternalSortTest, InjectedSpillFaultsDegradeToTypedErrors) {
  Relation r = BigTable(10, 600);
  int clean = 0, failed = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FaultInjector::Options fo;
    fo.seed = seed;
    fo.period = 4;
    fo.site_mask = FaultInjector::MaskOf(
        {FaultSite::kSpillOpen, FaultSite::kSpillWrite, FaultSite::kSpillRead});
    FaultInjector fault(fo);
    ResourceBudget budget;
    budget.WithMaxMemory(4 * 1024);
    SpillConfig cfg;
    ExecContext ctx;
    ctx.budget = &budget;
    ctx.spill = &cfg;
    ctx.fault = &fault;
    auto out = exec::Sort(r, Asc("r1", "a"), ctx);
    if (out.ok()) {
      ++clean;
      EXPECT_TRUE(CheckSorted(*out, Asc("r1", "a")).ok());
    } else {
      ++failed;
      EXPECT_TRUE(out.status().code() == StatusCode::kResourceExhausted ||
                  out.status().code() == StatusCode::kUnavailable)
          << out.status().ToString();
    }
    EXPECT_EQ(SpillFile::LiveCount(), 0u) << "seed " << seed;
    EXPECT_EQ(budget.memory_charged(), 0u) << "seed " << seed;
  }
  EXPECT_GT(failed, 0) << "no injected fault ever fired; test is vacuous";
}

}  // namespace
}  // namespace gsopt
