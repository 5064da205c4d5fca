// Experiment M3 (DESIGN.md): paper §1.1 join-aggregate queries. Scaling
// |r1| for the doubly-nested correlated COUNT query: tuple iteration
// semantics (commercial baseline) vs unnested (paper Query 2/3) vs
// unnested + reordered. Expectation: TIS grows superlinearly in |r1|;
// unnesting flattens it; reordering helps when r1 dominates.
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/datagen.h"
#include "unnest/nested_query.h"

namespace gsopt {
namespace {

NestedQuery BuildNested() {
  NestedQuery q;
  q.outer.table = "r1";
  q.outer.condition = CountCondition{Scalar::Column("r1", "b"), CmpOp::kGe};
  auto mid = std::make_shared<NestedBlock>();
  mid->table = "r2";
  mid->correlation = Predicate(MakeAtom("r2", "c", CmpOp::kEq, "r1", "c"));
  mid->condition = CountCondition{Scalar::Column("r2", "a"), CmpOp::kLt};
  auto inner = std::make_shared<NestedBlock>();
  inner->table = "r3";
  inner->correlation =
      Predicate({MakeAtom("r2", "b", CmpOp::kEq, "r3", "b"),
                 MakeAtom("r1", "a", CmpOp::kEq, "r3", "a")});
  mid->nested = inner;
  q.outer.nested = mid;
  q.select_cols = {Attribute{"r1", "a"}};
  return q;
}

Catalog MakeData(int n1) {
  Catalog cat;
  Rng rng(7);
  RandomRelationOptions opt;
  opt.domain = 8;
  opt.null_fraction = 0.05;
  opt.num_rows = n1;
  (void)cat.Register("r1",
                     MakeRandomRelation("r1", {"a", "b", "c"}, opt, &rng));
  opt.num_rows = 48;
  (void)cat.Register("r2",
                     MakeRandomRelation("r2", {"a", "b", "c"}, opt, &rng));
  (void)cat.Register("r3",
                     MakeRandomRelation("r3", {"a", "b", "c"}, opt, &rng));
  return cat;
}

void BM_Tis(benchmark::State& state) {
  Catalog cat = MakeData(static_cast<int>(state.range(0)));
  NestedQuery q = BuildNested();
  int rows = 0;
  for (auto _ : state) {
    auto r = ExecuteTis(q, cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

void BM_Unnested(benchmark::State& state) {
  Catalog cat = MakeData(static_cast<int>(state.range(0)));
  NestedQuery q = BuildNested();
  auto tree = UnnestToAlgebra(q, cat);
  if (!tree.ok()) {
    state.SkipWithError("unnest failed");
    return;
  }
  int rows = 0;
  for (auto _ : state) {
    auto r = Execute(*tree, cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

void BM_UnnestedReordered(benchmark::State& state) {
  Catalog cat = MakeData(static_cast<int>(state.range(0)));
  NestedQuery q = BuildNested();
  auto tree = UnnestToAlgebra(q, cat);
  if (!tree.ok()) {
    state.SkipWithError("unnest failed");
    return;
  }
  QueryOptimizer opt(cat);
  auto best = opt.Optimize(*tree);
  NodePtr plan = best.ok() ? best->best.expr : *tree;
  int rows = 0;
  for (auto _ : state) {
    auto r = Execute(plan, cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

#define R1SIZES DenseRange(50, 250, 100)->Unit(benchmark::kMillisecond)
BENCHMARK(BM_Tis)->R1SIZES;
BENCHMARK(BM_Unnested)->R1SIZES;
BENCHMARK(BM_UnnestedReordered)->R1SIZES;

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_query23_unnest);
