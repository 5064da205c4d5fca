// Experiment C2 (DESIGN.md): "The cost of the generalized selection
// operator is very similar to the cost of MGOJ ... or GOJ" (paper §4).
// Microbenchmark of the operator kernels at equal input sizes: inner join,
// left outer join, MGOJ with one preserved group, and GS applied to a
// materialized join result.
#include <benchmark/benchmark.h>

#include "report.h"

#include "base/rng.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Inputs {
  Relation a, b;
  Predicate eq;
  Predicate extra;

  explicit Inputs(int rows) {
    Rng rng(99);
    RandomRelationOptions opt;
    opt.num_rows = rows;
    opt.domain = rows / 4 + 1;
    a = MakeRandomRelation("a", {"x", "y"}, opt, &rng);
    b = MakeRandomRelation("b", {"x", "y"}, opt, &rng);
    eq = Predicate(MakeAtom("a", "x", CmpOp::kEq, "b", "x"));
    extra = Predicate(MakeAtom("a", "y", CmpOp::kLe, "b", "y"));
  }
};

void BM_InnerJoin(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::InnerJoin(in.a, in.b, in.eq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_LeftOuterJoin(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::LeftOuterJoin(in.a, in.b, in.eq));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Mgoj(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  std::vector<exec::PreservedGroup> groups{exec::PreservedGroup{"a"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Mgoj(in.a, in.b, in.eq, groups));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_GeneralizedSelection(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  Relation joined = *exec::LeftOuterJoin(in.a, in.b, in.eq);
  std::vector<exec::PreservedGroup> groups{exec::PreservedGroup{"a"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::GeneralizedSelection(joined, in.extra, groups));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_GsTwoGroups(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  Relation joined = *exec::FullOuterJoin(in.a, in.b, in.eq);
  std::vector<exec::PreservedGroup> groups{exec::PreservedGroup{"a"},
                                           exec::PreservedGroup{"b"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::GeneralizedSelection(joined, in.extra, groups));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PlainSelect(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  Relation joined = *exec::LeftOuterJoin(in.a, in.b, in.eq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Select(joined, in.extra));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// The observability overhead claim: BM_InnerJoin runs with stats disabled
// (the default ExecContext) and this variant collects OperatorStats.
// Their gap bounds what instrumented kernels cost; with a null stats
// pointer the kernels pay only dead branch tests, so BM_InnerJoin itself
// must stay within noise of its pre-instrumentation baseline.
void BM_InnerJoinWithStats(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  uint64_t probes = 0;
  for (auto _ : state) {
    exec::OperatorStats stats;
    exec::ExecContext ctx{nullptr, &stats};
    benchmark::DoNotOptimize(exec::InnerJoin(in.a, in.b, in.eq, ctx));
    probes = stats.probe_rows;
  }
  state.counters["probe_rows"] = static_cast<double>(probes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

#define SIZES RangeMultiplier(4)->Range(64, 16384)->Unit(benchmark::kMicrosecond)
BENCHMARK(BM_InnerJoin)->SIZES;
BENCHMARK(BM_LeftOuterJoin)->SIZES;
BENCHMARK(BM_Mgoj)->SIZES;
BENCHMARK(BM_GeneralizedSelection)->SIZES;
BENCHMARK(BM_GsTwoGroups)->SIZES;
BENCHMARK(BM_PlainSelect)->SIZES;
BENCHMARK(BM_InnerJoinWithStats)->SIZES;

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_gs_cost);
