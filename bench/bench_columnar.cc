// Optimized kernels (EXPERIMENTS.md V1, X1, Y1): selection and
// aggregation on the same input once with BatchMode::kOff (the reference
// evaluator's row-at-a-time kernels) and once with BatchMode::kAuto (bound
// predicates, keys encoded straight from the rows), plus the hash-join
// core. The reference join is nested loops -- quadratic, so it has no pair
// here. The input shapes mirror bench_gs_cost's Inputs -- domain rows/4+1,
// so joins have ~4 matches per key. Aggregation groups on the join column
// with a SUM and a COUNT(*) per group.
#include <benchmark/benchmark.h>

#include "report.h"

#include "base/rng.h"
#include "exec/aggregate.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Inputs {
  Relation a, b;
  Predicate eq;
  Predicate sel;

  explicit Inputs(int64_t rows) {
    Rng rng(99);
    RandomRelationOptions opt;
    opt.num_rows = rows;
    opt.domain = rows / 4 + 1;
    a = MakeRandomRelation("a", {"x", "y"}, opt, &rng);
    b = MakeRandomRelation("b", {"x", "y"}, opt, &rng);
    eq = Predicate(MakeAtom("a", "x", CmpOp::kEq, "b", "x"));
    sel = Predicate(MakeAtom("a", "y", CmpOp::kLe, "a", "x"));
  }
};

exec::ExecContext Ctx(exec::BatchMode mode) {
  exec::ExecContext ctx;
  ctx.batch = mode;
  return ctx;
}

exec::GroupBySpec AggSpecOnX() {
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"a", "x"}};
  exec::AggSpec n;
  n.func = exec::AggFunc::kCountStar;
  n.out_rel = "g";
  n.out_name = "n";
  exec::AggSpec s;
  s.func = exec::AggFunc::kSum;
  s.input = Scalar::Column("a", "y");
  s.out_rel = "g";
  s.out_name = "s";
  spec.aggs = {n, s};
  return spec;
}

void BM_SelectTuple(benchmark::State& state) {
  Inputs in(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::Select(in.a, in.sel, Ctx(exec::BatchMode::kOff)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SelectOptimized(benchmark::State& state) {
  Inputs in(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::Select(in.a, in.sel, Ctx(exec::BatchMode::kAuto)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_InnerJoinOptimized(benchmark::State& state) {
  Inputs in(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::InnerJoin(in.a, in.b, in.eq, Ctx(exec::BatchMode::kAuto)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_HashAggregateTuple(benchmark::State& state) {
  Inputs in(state.range(0));
  exec::GroupBySpec spec = AggSpecOnX();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::GeneralizedProjection(in.a, spec, Ctx(exec::BatchMode::kOff)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_HashAggregateOptimized(benchmark::State& state) {
  Inputs in(state.range(0));
  exec::GroupBySpec spec = AggSpecOnX();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec::GeneralizedProjection(in.a, spec,
                                    Ctx(exec::BatchMode::kAuto)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

#define SIZES Arg(1024)->Arg(4096)->Arg(16384)->Unit(benchmark::kMicrosecond)
BENCHMARK(BM_SelectTuple)->SIZES;
BENCHMARK(BM_SelectOptimized)->SIZES;
BENCHMARK(BM_InnerJoinOptimized)->SIZES;
BENCHMARK(BM_HashAggregateTuple)->SIZES;
BENCHMARK(BM_HashAggregateOptimized)->SIZES;

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_columnar);
