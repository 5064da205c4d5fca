// Resource governance overhead and deadline-fallback latency.
//
// Two questions a production deployment asks of a cooperative budget:
//  (1) What does carrying an (unexpired) budget cost on the happy path?
//      BM_Optimize vs BM_OptimizeGoverned on the same query.
//  (2) When a hostile query blows the deadline, how quickly does the
//      optimizer land on a plan? BM_FallbackLadder measures the fall from
//      the generalized rung to the syntactic plan on an exhaustive
//      n-relation chain with a deadline far below what the search needs.
#include <benchmark/benchmark.h>

#include "report.h"

#include <chrono>
#include <string>

#include "algebra/execute.h"
#include "base/budget.h"
#include "base/check.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Catalog MakeCatalog(int n) {
  Catalog cat;
  Rng rng(314);
  RandomRelationOptions opt;
  opt.num_rows = 10;
  opt.domain = 6;
  opt.null_fraction = 0.1;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

NodePtr ChainQuery(int n) {
  NodePtr q = Node::Leaf("r1");
  for (int i = 2; i <= n; ++i) {
    std::string prev = "r" + std::to_string(i - 1);
    std::string cur = "r" + std::to_string(i);
    q = Node::Join(q, Node::Leaf(cur),
                   Predicate(MakeAtom(prev, "a", CmpOp::kEq, cur, "a")));
  }
  return q;
}

void BM_Optimize(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Catalog cat = MakeCatalog(n);
  NodePtr q = ChainQuery(n);
  QueryOptimizer opt(cat);
  for (auto _ : state) {
    auto result = opt.Optimize(q);
    GSOPT_CHECK(result.ok());
    benchmark::DoNotOptimize(result->best.cost);
  }
}

void BM_OptimizeGoverned(benchmark::State& state) {
  // Same query, same pruned search, plus an hour-long deadline that never
  // fires: isolates the probe overhead of governance.
  int n = static_cast<int>(state.range(0));
  Catalog cat = MakeCatalog(n);
  NodePtr q = ChainQuery(n);
  QueryOptimizer opt(cat);
  for (auto _ : state) {
    ResourceBudget budget;
    budget.WithDeadlineAfter(std::chrono::hours(1));
    OptimizeOptions oo;
    oo.budget = &budget;
    auto result = opt.Optimize(q, oo);
    GSOPT_CHECK(result.ok());
    GSOPT_CHECK(!result->degradation.degraded());
    benchmark::DoNotOptimize(result->best.cost);
  }
}

void BM_FallbackLadder(benchmark::State& state) {
  // Exhaustive enumeration with a 5 ms deadline: far too little for the
  // unpruned chain, so every iteration falls back to the syntactic plan.
  // The measured time is the worst-case answer latency under pressure
  // (deadline + fallback overhead), not the search itself.
  int n = static_cast<int>(state.range(0));
  Catalog cat = MakeCatalog(n);
  NodePtr q = ChainQuery(n);
  QueryOptimizer opt(cat);
  int degraded = 0;
  for (auto _ : state) {
    ResourceBudget budget;
    budget.WithDeadlineAfter(std::chrono::milliseconds(5));
    OptimizeOptions oo;
    oo.prune = false;
    oo.budget = &budget;
    auto result = opt.Optimize(q, oo);
    GSOPT_CHECK(result.ok());
    degraded += result->degradation.degraded() ? 1 : 0;
    benchmark::DoNotOptimize(result->best.cost);
  }
  state.counters["degraded"] = degraded;
}

// Execution under governance: a 3-relation chain over large
// near-unique-key tables, executed with an hour-long deadline that never
// fires. Measures what the budget's row charges and deadline probes cost.
void BM_GovernedExecuteSerial(benchmark::State& state) {
  Catalog cat;
  Rng rng(271828);
  RandomRelationOptions ropt;
  ropt.num_rows = static_cast<int>(state.range(0));
  ropt.domain = ropt.num_rows;  // ~1 match per key: output stays linear
  ropt.null_fraction = 0.1;
  AddRandomTables(3, ropt, &rng, &cat);
  NodePtr q = ChainQuery(3);
  ExecuteOptions xo;
  int64_t rows = 0;
  for (auto _ : state) {
    ResourceBudget budget;
    budget.WithDeadlineAfter(std::chrono::hours(1));
    xo.budget = &budget;
    auto r = Execute(q, cat, xo);
    GSOPT_CHECK(r.ok());
    rows = r->NumRows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_Optimize)->DenseRange(4, 8, 2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OptimizeGoverned)
    ->DenseRange(4, 8, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FallbackLadder)
    ->DenseRange(10, 14, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GovernedExecuteSerial)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_budget_fallback);
