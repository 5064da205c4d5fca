// Bloom-filter sideways-information-passing sweep (EXPERIMENTS.md B1):
// the same build-heavy-probe join at match rates from 0.1% to 50%, once
// with BloomMode::kOff and once with BloomMode::kAuto, on both paths of
// the hash-join core -- in memory ("serial") and memory-starved/spilled.
// The probe side draws `match_permille` of
// its keys from the build domain and the rest from a disjoint domain, so
// the filter's reject rate tracks (1 - match rate) directly; the headline
// pair is the 16384-row / 1% serial-auto comparison.
//
// Benchmark arguments: {rows, match_permille}.
#include <benchmark/benchmark.h>

#include "report.h"

#include "base/budget.h"
#include "base/rng.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Inputs {
  Relation a, b;  // a = probe side, b = build side
  Predicate eq;

  Inputs(int64_t rows, int64_t match_permille) {
    Rng rng(99);
    // Build side: an eighth of the probe rows over a dense key domain
    // (~2 duplicates per key). Probe work dominates, which is the
    // asymmetry the filter exploits; a full-size build side would spend
    // the savings on filter inserts.
    const int64_t build_rows = std::max<int64_t>(1, rows / 8);
    const int64_t domain = std::max<int64_t>(1, rows / 16);
    std::vector<std::vector<Value>> brows;
    brows.reserve(static_cast<size_t>(build_rows));
    for (int64_t i = 0; i < build_rows; ++i) {
      brows.push_back({Value::Int(rng.Uniform(0, domain - 1)),
                       Value::Int(rng.Uniform(0, 1000))});
    }
    b = MakeRelation("b", {"x", "y"}, brows);
    // Probe side: match_permille/1000 of the rows draw from the build
    // domain; the rest from a disjoint range, which the filter rejects.
    std::vector<std::vector<Value>> arows;
    arows.reserve(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      const bool match = rng.Uniform(0, 999) < match_permille;
      const int64_t key = match ? rng.Uniform(0, domain - 1)
                                : domain + rng.Uniform(0, domain - 1);
      arows.push_back({Value::Int(key), Value::Int(rng.Uniform(0, 1000))});
    }
    a = MakeRelation("a", {"x", "y"}, arows);
    eq = Predicate(MakeAtom("a", "x", CmpOp::kEq, "b", "x"));
  }
};

void RunJoin(benchmark::State& state, exec::BloomMode bloom, bool spilled) {
  Inputs in(state.range(0), state.range(1));
  for (auto _ : state) {
    exec::ExecContext ctx;
    ctx.bloom = bloom;
    ResourceBudget budget;
    exec::SpillConfig cfg;
    if (spilled) {
      // Large enough for the ~32KB filter plus partition scratch, small
      // enough that the build side cannot stay resident.
      budget.WithMaxMemory(512 * 1024);
      ctx.budget = &budget;
      ctx.spill = &cfg;
    }
    benchmark::DoNotOptimize(exec::InnerJoin(in.a, in.b, in.eq, ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_JoinSerialOff(benchmark::State& state) {
  RunJoin(state, exec::BloomMode::kOff, false);
}
void BM_JoinSerialBloom(benchmark::State& state) {
  RunJoin(state, exec::BloomMode::kAuto, false);
}
void BM_JoinSpilledOff(benchmark::State& state) {
  RunJoin(state, exec::BloomMode::kOff, true);
}
void BM_JoinSpilledBloom(benchmark::State& state) {
  RunJoin(state, exec::BloomMode::kAuto, true);
}

// Match-rate sweep at the headline size, plus the 64K point at 1%.
#define MATCH_SWEEP                                               \
  Args({16384, 1})->Args({16384, 10})->Args({16384, 100})         \
      ->Args({16384, 500})->Args({65536, 10})                     \
      ->Unit(benchmark::kMicrosecond)

BENCHMARK(BM_JoinSerialOff)->MATCH_SWEEP;
BENCHMARK(BM_JoinSerialBloom)->MATCH_SWEEP;
BENCHMARK(BM_JoinSpilledOff)->MATCH_SWEEP;
BENCHMARK(BM_JoinSpilledBloom)->MATCH_SWEEP;

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_bloom_sip);
