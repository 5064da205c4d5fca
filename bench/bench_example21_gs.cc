// Experiment E1 (DESIGN.md): Example 2.1 at scale. The paper's T1/T2
// compensation -- sigma*_{p13}[r1r2](T2) == T1 -- run over growing
// relations: the cost of computing T2 (simple outer join) plus the GS
// compensation vs computing T1 directly (complex-predicate outer join
// forced to nested loops). This quantifies why the break-up widens the
// plan space at acceptable operator cost.
#include <benchmark/benchmark.h>

#include "report.h"

#include "base/check.h"
#include "base/rng.h"
#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Inputs {
  Relation r1, r2, r3;
  Predicate p12, p13, p23, p13_and_p23;

  explicit Inputs(int rows) {
    Rng rng(2024);
    RandomRelationOptions opt;
    opt.num_rows = rows;
    opt.domain = rows / 3 + 2;
    r1 = MakeRandomRelation("r1", {"a", "b", "c", "f"}, opt, &rng);
    opt.num_rows = rows / 2 + 1;
    r2 = MakeRandomRelation("r2", {"c", "d", "e"}, opt, &rng);
    r3 = MakeRandomRelation("r3", {"e", "f"}, opt, &rng);
    p12 = Predicate(MakeAtom("r1", "c", CmpOp::kEq, "r2", "c"));
    p13 = Predicate(MakeAtom("r1", "f", CmpOp::kEq, "r3", "f"));
    p23 = Predicate(MakeAtom("r2", "e", CmpOp::kEq, "r3", "e"));
    p13_and_p23 = Predicate::And(p13, p23);
  }
};

// T1 as written: the complex predicate p13^p23 is applied at the outer
// join (no single-edge hash key covers it fully: p13 and p23 hash
// separately, the pair must still be verified).
void BM_T1AsWritten(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  int rows = 0;
  for (auto _ : state) {
    Relation t1 = *exec::LeftOuterJoin(
        *exec::LeftOuterJoin(in.r1, in.r2, in.p12), in.r3, in.p13_and_p23);
    rows = t1.NumRows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

// T2 + GS compensation: join on p23 only, then sigma*_{p13}[r1r2].
void BM_T2PlusCompensation(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  std::vector<exec::PreservedGroup> groups{exec::PreservedGroup{"r1", "r2"}};
  int rows = 0;
  for (auto _ : state) {
    Relation t2 = *exec::LeftOuterJoin(
        *exec::LeftOuterJoin(in.r1, in.r2, in.p12), in.r3, in.p23);
    Relation fixed = *exec::GeneralizedSelection(t2, in.p13, groups);
    rows = fixed.NumRows();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = rows;
}

// Correctness guard executed once per size under the bench harness.
void BM_CompensationMatchesT1(benchmark::State& state) {
  Inputs in(static_cast<int>(state.range(0)));
  std::vector<exec::PreservedGroup> groups{exec::PreservedGroup{"r1", "r2"}};
  bool equal = false;
  for (auto _ : state) {
    Relation t1 = *exec::LeftOuterJoin(
        *exec::LeftOuterJoin(in.r1, in.r2, in.p12), in.r3, in.p13_and_p23);
    Relation t2 = *exec::LeftOuterJoin(
        *exec::LeftOuterJoin(in.r1, in.r2, in.p12), in.r3, in.p23);
    Relation fixed = *exec::GeneralizedSelection(t2, in.p13, groups);
    equal = Relation::BagEquals(t1, fixed);
    GSOPT_CHECK_MSG(equal, "E1 compensation must reproduce T1");
    benchmark::DoNotOptimize(equal);
  }
  state.counters["equal"] = equal ? 1 : 0;
}

#define SIZES RangeMultiplier(4)->Range(32, 2048)->Unit(benchmark::kMicrosecond)
BENCHMARK(BM_T1AsWritten)->SIZES;
BENCHMARK(BM_T2PlusCompensation)->SIZES;
BENCHMARK(BM_CompensationMatchesT1)->SIZES;

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_example21_gs);
