// Experiment M2 (DESIGN.md): paper §1.1 Query 1 -- an outer-join predicate
// over an aggregation output blocks classical view merging; the paper's
// pull-up + generalized selection makes all four relations reorderable.
// Measured: as-written execution vs the optimizer's plan, as r4's filter
// selectivity varies ("if predicate r4.b = V1.b is highly filtering then
// it may be beneficial to perform this join first").
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Scenario {
  Catalog cat;
  NodePtr query;
  NodePtr optimized;

  // r4_domain controls how filtering r4.b = r2.c is: a large domain for
  // r4.b makes matches rare.
  Scenario(int rows, int64_t r4_domain) {
    Rng rng(11);
    RandomRelationOptions opt;
    opt.num_rows = rows;
    opt.domain = 5;
    (void)cat.Register("r1",
                       MakeRandomRelation("r1", {"a", "b", "c"}, opt, &rng));
    (void)cat.Register("r2",
                       MakeRandomRelation("r2", {"a", "b", "c"}, opt, &rng));
    (void)cat.Register("r3",
                       MakeRandomRelation("r3", {"a", "b", "c"}, opt, &rng));
    opt.num_rows = 12;
    opt.domain = r4_domain;
    (void)cat.Register("r4",
                       MakeRandomRelation("r4", {"a", "b", "c"}, opt, &rng));

    NodePtr v1_join = Node::Join(
        Node::Leaf("r1"), Node::Leaf("r2"),
        Predicate(MakeAtom("r1", "b", CmpOp::kEq, "r2", "b")));
    exec::GroupBySpec spec;
    spec.group_cols = {Attribute{"r1", "c"}, Attribute{"r2", "c"}};
    exec::AggSpec cnt;
    cnt.func = exec::AggFunc::kCount;
    cnt.input = Scalar::Column("r1", "b");
    cnt.out_rel = "V1";
    cnt.out_name = "c";
    spec.aggs = {cnt};
    NodePtr v1 = Node::GroupBy(v1_join, spec);
    NodePtr loj = Node::LeftOuterJoin(
        v1, Node::Leaf("r3"),
        Predicate(MakeAtom("r3", "b", CmpOp::kLt, "V1", "c")));
    query = Node::Join(loj, Node::Leaf("r4"),
                       Predicate(MakeAtom("r4", "b", CmpOp::kEq, "r2", "c")));

    QueryOptimizer opt2(cat);
    auto best = opt2.Optimize(query);
    optimized = best.ok() ? best->best.expr : query;
  }
};

void BM_Query1AsWritten(benchmark::State& state) {
  Scenario sc(static_cast<int>(state.range(0)), state.range(1));
  int rows = 0;
  for (auto _ : state) {
    auto r = Execute(sc.query, sc.cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

void BM_Query1Optimized(benchmark::State& state) {
  Scenario sc(static_cast<int>(state.range(0)), state.range(1));
  int rows = 0;
  for (auto _ : state) {
    auto r = Execute(sc.optimized, sc.cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

void Grid(benchmark::internal::Benchmark* b) {
  for (int rows : {60, 180}) {
    for (int64_t dom : {5, 40}) {  // 40: r4 filter highly selective
      b->Args({rows, dom});
    }
  }
}

BENCHMARK(BM_Query1AsWritten)->Apply(Grid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Query1Optimized)->Apply(Grid)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_agg_pullup);
