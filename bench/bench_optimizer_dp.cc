// Experiment C3 (DESIGN.md): integration into dynamic-programming
// enumeration (paper §4). Optimization wall-time and plan quality with the
// Selinger-style per-state pruning vs exhaustive enumeration, and across
// enumeration modes, on mixed outer-join queries of growing size.
// Counters: plans (frontier size), best_cost, aswritten_cost.
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "enumerate/random_query.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Workload {
  Catalog cat;
  NodePtr query;

  explicit Workload(int n, uint64_t seed) {
    Rng rng(seed);
    RandomRelationOptions opt;
    opt.num_rows = 60;
    opt.domain = 12;
    opt.null_fraction = 0.05;
    AddRandomTables(n, opt, &rng, &cat);
    RandomQueryOptions qopt;
    qopt.num_rels = n;
    qopt.loj_prob = 0.4;
    qopt.foj_prob = 0.1;
    qopt.extra_atom_prob = 0.5;
    query = MakeRandomQuery(qopt, &rng);
  }
};

void Run(benchmark::State& state, bool prune, EnumMode mode) {
  Workload w(static_cast<int>(state.range(0)), 31337);
  QueryOptimizer opt(w.cat);
  OptimizeOptions oo;
  oo.prune = prune;
  oo.mode = mode;
  // Plan-quality counters measured once; the loop times Optimize() itself.
  {
    auto result = opt.Optimize(w.query, oo);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    state.counters["plans"] =
        static_cast<double>(result->plans_considered);
    state.counters["best_cost"] = result->best.cost;
    state.counters["aswritten_cost"] = result->original_cost;
  }
  for (auto _ : state) {
    auto result = opt.Optimize(w.query, oo);
    benchmark::DoNotOptimize(result);
  }
}

// The plan the enumeration produces: the DP benches above time
// Optimize(); this one times Execute() of the chosen plan, so the
// optimizer bench also anchors what its plans cost to run.
void BM_ExecuteBestSerial(benchmark::State& state) {
  Workload w(static_cast<int>(state.range(0)), 31337);
  QueryOptimizer opt(w.cat);
  auto result = opt.Optimize(w.query);
  NodePtr plan = result.ok() ? result->best.expr : w.query;
  int64_t rows = 0;
  for (auto _ : state) {
    auto r = Execute(plan, w.cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_GeneralizedPruned(benchmark::State& state) {
  Run(state, true, EnumMode::kGeneralized);
}
void BM_GeneralizedExhaustive(benchmark::State& state) {
  Run(state, false, EnumMode::kGeneralized);
}
void BM_BaselinePruned(benchmark::State& state) {
  Run(state, true, EnumMode::kBaseline);
}
void BM_BinaryOnlyPruned(benchmark::State& state) {
  Run(state, true, EnumMode::kBinaryOnly);
}

BENCHMARK(BM_GeneralizedPruned)->DenseRange(3, 7, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GeneralizedExhaustive)->DenseRange(3, 6, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BaselinePruned)->DenseRange(3, 7, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BinaryOnlyPruned)->DenseRange(3, 7, 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecuteBestSerial)->DenseRange(3, 6, 1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_optimizer_dp);
