// Experiment M1 (DESIGN.md): paper Example 1.1. Execution time of the
// as-written plan (aggregate 95DETAIL first, then outer join) vs the
// optimizer's plan across the selectivity of the BANKRUPT filter. The
// paper's prediction: with few qualifying suppliers, joining before
// aggregating wins; the crossover moves with selectivity.
// Counters: rows (result size), speedup (as-written / optimized time is
// the ratio of the two benchmark entries).
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "relational/catalog.h"

namespace gsopt {
namespace {

struct Scenario {
  Catalog cat;
  NodePtr query;
  NodePtr optimized;

  Scenario(int bankrupt_permille, int n95) {
    Rng rng(4242);
    const int nsup = 50, n94 = 80;
    (void)cat.CreateTable("agg94", {"supkey", "partkey", "qty"});
    (void)cat.CreateTable("detail95", {"supkey", "partkey", "qty"});
    (void)cat.CreateTable("sup", {"supkey", "rating"});
    for (int i = 0; i < nsup; ++i) {
      bool bankrupt = rng.Uniform(0, 999) < bankrupt_permille;
      (void)cat.Insert("sup", {Value::Int(i), Value::Int(bankrupt ? 0 : 1)});
    }
    for (int i = 0; i < n94; ++i) {
      (void)cat.Insert("agg94", {Value::Int(rng.Uniform(0, nsup - 1)),
                                 Value::Int(rng.Uniform(0, 5)),
                                 Value::Int(rng.Uniform(1, 30))});
    }
    for (int i = 0; i < n95; ++i) {
      (void)cat.Insert("detail95", {Value::Int(rng.Uniform(0, nsup - 1)),
                                    Value::Int(rng.Uniform(0, 5)),
                                    Value::Int(rng.Uniform(1, 30))});
    }

    NodePtr v2 = Node::Join(
        Node::Leaf("agg94"),
        Node::Select(Node::Leaf("sup"),
                     Predicate(MakeConstAtom("sup", "rating", CmpOp::kEq,
                                             Value::Int(0)))),
        Predicate(MakeAtom("agg94", "supkey", CmpOp::kEq, "sup", "supkey")));
    exec::GroupBySpec spec;
    spec.group_cols = {Attribute{"detail95", "supkey"},
                       Attribute{"detail95", "partkey"}};
    exec::AggSpec cnt;
    cnt.func = exec::AggFunc::kCountStar;
    cnt.out_rel = "V3";
    cnt.out_name = "aggqty95";
    spec.aggs = {cnt};
    NodePtr v3 = Node::GroupBy(Node::Leaf("detail95"), spec);
    Predicate p;
    p.AddAtom(MakeAtom("agg94", "supkey", CmpOp::kEq, "detail95", "supkey"));
    p.AddAtom(
        MakeAtom("agg94", "partkey", CmpOp::kEq, "detail95", "partkey"));
    Atom agg_atom;
    agg_atom.lhs = Scalar::Column("agg94", "qty");
    agg_atom.op = CmpOp::kLt;
    agg_atom.rhs = Scalar::Arith(ArithOp::kMul, Scalar::Const(Value::Int(2)),
                                 Scalar::Column("V3", "aggqty95"));
    p.AddAtom(agg_atom);
    query = Node::LeftOuterJoin(v2, v3, p);

    QueryOptimizer opt(cat);
    auto result = opt.Optimize(query);
    optimized = result.ok() ? result->best.expr : query;
  }
};

void BM_AsWritten(benchmark::State& state) {
  Scenario sc(static_cast<int>(state.range(0)),
              static_cast<int>(state.range(1)));
  int rows = 0;
  for (auto _ : state) {
    auto r = Execute(sc.query, sc.cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

void BM_Optimized(benchmark::State& state) {
  Scenario sc(static_cast<int>(state.range(0)),
              static_cast<int>(state.range(1)));
  int rows = 0;
  for (auto _ : state) {
    auto r = Execute(sc.optimized, sc.cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

void Grid(benchmark::internal::Benchmark* b) {
  for (int permille : {500, 200, 50}) {   // bankrupt fraction
    for (int n95 : {1000, 4000}) {        // detail table size
      b->Args({permille, n95});
    }
  }
}

BENCHMARK(BM_AsWritten)->Apply(Grid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Optimized)->Apply(Grid)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_example11_supplier);
