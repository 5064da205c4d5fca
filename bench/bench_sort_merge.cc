// Experiment O1 (EXPERIMENTS.md "Order-aware execution"): the external
// sort across input dispositions (random / presorted / reverse-sorted /
// memory-capped so it spills), and an ORDER-BY-on-the-join-key query over
// presorted base tables executed as hash join plus sort enforcer.
// Input shapes mirror bench_columnar: domain rows/4+1, ~4 matches/key.
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "base/rng.h"
#include "exec/eval.h"
#include "exec/sort.h"
#include "exec/spill.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

exec::SortSpec KeySpec(bool desc = false) {
  return exec::SortSpec{{Attribute{"r1", "x"}, desc},
                        {Attribute{"r1", "y"}, false}};
}

struct SortInputs {
  Relation random_r, sorted_r, reverse_r;

  explicit SortInputs(int64_t rows) {
    Rng rng(417);
    RandomRelationOptions opt;
    opt.num_rows = rows;
    opt.domain = rows / 4 + 1;
    opt.null_fraction = 0.02;
    random_r = MakeRandomRelation("r1", {"x", "y"}, opt, &rng);
    sorted_r = *exec::Sort(random_r, KeySpec(false));
    reverse_r = *exec::Sort(random_r, KeySpec(true));
  }
};

void RunSort(benchmark::State& state, const Relation& input) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Sort(input, KeySpec()));
  }
  state.SetItemsProcessed(state.iterations() * input.NumRows());
}

void BM_SortRandom(benchmark::State& state) {
  SortInputs in(state.range(0));
  RunSort(state, in.random_r);
}

void BM_SortPresorted(benchmark::State& state) {
  SortInputs in(state.range(0));
  RunSort(state, in.sorted_r);
}

void BM_SortReverse(benchmark::State& state) {
  SortInputs in(state.range(0));
  RunSort(state, in.reverse_r);
}

void BM_SortSpilled(benchmark::State& state) {
  SortInputs in(state.range(0));
  ResourceBudget budget;
  budget.WithMaxMemory(256 * 1024);
  exec::SpillConfig cfg;
  exec::OperatorStats stats;
  exec::ExecContext ctx;
  ctx.budget = &budget;
  ctx.spill = &cfg;
  ctx.stats = &stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Sort(in.random_r, KeySpec(), ctx));
  }
  state.counters["sort_runs"] = static_cast<double>(stats.sort_runs);
  state.counters["merge_passes"] =
      static_cast<double>(stats.sort_merge_passes);
  state.SetItemsProcessed(state.iterations() * in.random_r.NumRows());
}

// --- ORDER BY over a join of presorted inputs -----------------------

// Both base tables arrive presorted by the join key; the ordered query is
// executed as written, so a hash join feeds the kSort enforcer, which
// re-sorts its output.
struct JoinWorkload {
  Catalog cat;
  NodePtr ordered_query;  // ORDER BY r1.x over the join

  explicit JoinWorkload(int64_t rows) {
    Rng rng(418);
    RandomRelationOptions opt;
    opt.num_rows = rows;
    opt.domain = rows / 4 + 1;
    opt.null_fraction = 0.02;
    for (const char* name : {"r1", "r2"}) {
      Relation r = MakeRandomRelation(name, {"x", "y"}, opt, &rng);
      exec::SortSpec by_key{{Attribute{name, "x"}, false}};
      GSOPT_CHECK(cat.Register(name, *exec::Sort(r, by_key)).ok());
    }
    Predicate eq(MakeAtom("r1", "x", CmpOp::kEq, "r2", "x"));
    ordered_query =
        Node::Sort(Node::Join(Node::Leaf("r1"), Node::Leaf("r2"), eq),
                   exec::SortSpec{{Attribute{"r1", "x"}, false}});
  }
};

void BM_OrderByHashThenSort(benchmark::State& state) {
  JoinWorkload w(state.range(0));
  int64_t rows = 0;
  for (auto _ : state) {
    auto r = Execute(w.ordered_query, w.cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

#define SIZES Arg(16384)->Arg(65536)->Unit(benchmark::kMicrosecond)
BENCHMARK(BM_SortRandom)->SIZES;
BENCHMARK(BM_SortPresorted)->SIZES;
BENCHMARK(BM_SortReverse)->SIZES;
BENCHMARK(BM_SortSpilled)->SIZES;
BENCHMARK(BM_OrderByHashThenSort)->SIZES;

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_sort_merge);
