// Out-of-core degradation cost: what does a hash join pay to complete
// under a memory cap far below its working state, versus running fully in
// memory?
//
//  * BM_JoinInMemory / BM_JoinSpilled: the same equi-join with an
//    unlimited budget vs. a cap at ~1/4 of the measured build state, so
//    the spilled variant radix-partitions both sides to temp files and
//    processes partitions one at a time. The spilled run's counters
//    (partitions, bytes written/read, recursion rounds) are exported so
//    EXPERIMENTS.md can cite the amplification alongside the slowdown.
//  * BM_AggSpilled: the same contrast for hash aggregation (GROUP BY with
//    COUNT/SUM over a wide key domain).
//  * BM_SpillCapSweep: one input size, caps descending from fits-in-memory
//    to 1/16 of the state -- the degradation curve a deployment consults
//    when sizing operator memory.
//
// The headline result for EXPERIMENTS.md "max joinable size": with the
// cap fixed, the in-memory join fails with kResourceExhausted beyond the
// cap-sized input, while the spilled join completes at every size
// measured here (>= 4x the cap). BM_JoinSpilled's `cap_ratio` counter
// records working-state-bytes / cap for the record.
#include <benchmark/benchmark.h>

#include "report.h"

#include <string>

#include "base/budget.h"
#include "base/check.h"
#include "base/rng.h"
#include "exec/aggregate.h"
#include "exec/eval.h"
#include "exec/spill.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Relation BenchTable(const std::string& name, uint64_t seed, int rows) {
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = rows / 2;  // ~2 matches per key
  opt.null_fraction = 0.05;
  return MakeRandomRelation(name, {"a", "b", "c"}, opt, &rng);
}

// Approximate the join's build-side working state the same way the kernel
// charges it, so cap choices are stated as a fraction of real state.
uint64_t BuildStateBytes(const Relation& b) {
  uint64_t total = 0;
  for (int64_t j = 0; j < b.NumRows(); ++j) {
    total += exec::internal::ApproxTupleBytes(b.row(j)) + 64 + 16;
  }
  return total;
}

void RunJoin(benchmark::State& state, bool spill, uint64_t cap_divisor) {
  int rows = static_cast<int>(state.range(0));
  Relation a = BenchTable("r1", 1001, rows);
  Relation b = BenchTable("r2", 1002, rows);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  uint64_t build_bytes = BuildStateBytes(b);
  uint64_t cap = cap_divisor == 0 ? 0 : build_bytes / cap_divisor;

  exec::SpillConfig cfg;
  exec::OperatorStats stats;
  int64_t out_rows = 0;
  for (auto _ : state) {
    ResourceBudget budget;
    if (cap > 0) budget.WithMaxMemory(cap);
    stats = exec::OperatorStats{};
    exec::ExecContext ctx;
    ctx.budget = cap > 0 ? &budget : nullptr;
    ctx.stats = &stats;
    ctx.spill = spill ? &cfg : nullptr;
    auto r = exec::InnerJoin(a, b, p, ctx);
    GSOPT_CHECK(r.ok());
    out_rows = r->NumRows();
    benchmark::DoNotOptimize(out_rows);
  }
  state.counters["rows_out"] = static_cast<double>(out_rows);
  if (cap > 0) {
    state.counters["cap_ratio"] =
        static_cast<double>(build_bytes) / static_cast<double>(cap);
  }
  if (spill) {
    state.counters["spill_parts"] =
        static_cast<double>(stats.spill_partitions);
    state.counters["spill_mb_written"] =
        static_cast<double>(stats.spill_bytes_written) / (1024.0 * 1024.0);
    state.counters["spill_recursions"] =
        static_cast<double>(stats.spill_recursions);
  }
}

void BM_JoinInMemory(benchmark::State& state) {
  RunJoin(state, /*spill=*/false, /*cap_divisor=*/0);
}

void BM_JoinSpilled(benchmark::State& state) {
  // Cap at a quarter of the build state: the workload is 4x the budget.
  RunJoin(state, /*spill=*/true, /*cap_divisor=*/4);
}

void BM_SpillCapSweep(benchmark::State& state) {
  // Fixed input, cap = build_state / range: the degradation curve.
  benchmark::State& s = state;
  int divisor = static_cast<int>(s.range(0));
  Relation a = BenchTable("r1", 2001, 20000);
  Relation b = BenchTable("r2", 2002, 20000);
  Predicate p({MakeAtom("r1", "a", CmpOp::kEq, "r2", "a")});
  uint64_t cap = BuildStateBytes(b) / static_cast<uint64_t>(divisor);
  exec::SpillConfig cfg;
  for (auto _ : s) {
    ResourceBudget budget;
    budget.WithMaxMemory(cap);
    exec::ExecContext ctx;
    ctx.budget = &budget;
    ctx.spill = &cfg;
    auto r = exec::InnerJoin(a, b, p, ctx);
    GSOPT_CHECK(r.ok());
    benchmark::DoNotOptimize(r->NumRows());
  }
}

void BM_AggSpilled(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  bool spill = state.range(1) != 0;
  Relation r = BenchTable("r1", 3001, rows);
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

  // Cap at a quarter of what grouping the whole input retains.
  uint64_t cap = 0;
  {
    exec::ExecContext probe_ctx;
    ResourceBudget meter;
    probe_ctx.budget = &meter;
    auto full = exec::GeneralizedProjection(r, spec, probe_ctx);
    GSOPT_CHECK(full.ok());
    cap = meter.memory_peak() / 4;
    if (cap < 1024) cap = 1024;
  }
  exec::SpillConfig cfg;
  for (auto _ : state) {
    ResourceBudget budget;
    if (spill) budget.WithMaxMemory(cap);
    exec::ExecContext ctx;
    ctx.budget = spill ? &budget : nullptr;
    ctx.spill = spill ? &cfg : nullptr;
    auto out = exec::GeneralizedProjection(r, spec, ctx);
    GSOPT_CHECK(out.ok());
    benchmark::DoNotOptimize(out->NumRows());
  }
}

BENCHMARK(BM_JoinInMemory)
    ->RangeMultiplier(2)
    ->Range(8192, 32768)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JoinSpilled)
    ->RangeMultiplier(2)
    ->Range(8192, 32768)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SpillCapSweep)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AggSpilled)
    ->Args({32768, 0})
    ->Args({32768, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_spill);
