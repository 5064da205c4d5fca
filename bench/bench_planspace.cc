// Experiment C1 (DESIGN.md): plan-space completeness. For chain / star /
// mixed outer-join queries with complex predicates, measure association
// trees and valid plans per enumeration mode (binary-only [GALI92-class],
// baseline [BHAR95a-class], generalized = the paper), plus enumeration
// time. Counters: trees, plans.
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "algebra/node.h"
#include "base/rng.h"
#include "enumerate/enumerator.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Predicate P(const std::string& r1, const std::string& c1,
            const std::string& r2, const std::string& c2) {
  return Predicate(MakeAtom(r1, c1, CmpOp::kEq, r2, c2));
}

std::string R(int i) { return "r" + std::to_string(i); }

// Chain: r1 -> (r2 -> (r3 -> ...)), every second predicate complex
// (references the grandparent too).
NodePtr Chain(int n) {
  NodePtr t = Node::Leaf(R(n));
  for (int i = n - 1; i >= 1; --i) {
    Predicate p = P(R(i), "a", R(i + 1), "a");
    if (i % 2 == 1 && i + 2 <= n) {
      p.AddAtom(MakeAtom(R(i), "b", CmpOp::kLe, R(i + 2), "b"));
    }
    t = Node::LeftOuterJoin(Node::Leaf(R(i)), t, p);
  }
  return t;
}

// Star: r1 at the center, outer-joined with each spoke; one complex
// predicate tying two spokes through the center.
NodePtr Star(int n) {
  NodePtr t = Node::Leaf(R(1));
  for (int i = 2; i <= n; ++i) {
    Predicate p = P(R(1), "a", R(i), "a");
    if (i == n && n >= 3) {
      p.AddAtom(MakeAtom(R(2), "b", CmpOp::kLe, R(i), "b"));
    }
    t = Node::LeftOuterJoin(t, Node::Leaf(R(i)), p);
  }
  return t;
}

// Mixed: joins below, one complex LOJ, one simple LOJ on top (Q4-like,
// extended with extra join spokes).
NodePtr Mixed(int n) {
  // r3..rn joined in a chain, r2 complex-LOJ onto r3/r4, r1 LOJ onto r2.
  NodePtr t = Node::Leaf(R(3));
  for (int i = 4; i <= n; ++i) {
    t = Node::Join(t, Node::Leaf(R(i)), P(R(i - 1), "c", R(i), "c"));
  }
  Predicate complex = P(R(2), "a", R(3), "a");
  if (n >= 4) complex.AddAtom(MakeAtom(R(2), "b", CmpOp::kEq, R(4), "b"));
  t = Node::LeftOuterJoin(Node::Leaf(R(2)), t, complex);
  return Node::LeftOuterJoin(Node::Leaf(R(1)), t, P(R(1), "a", R(2), "a"));
}

void RunModes(benchmark::State& state, NodePtr (*builder)(int)) {
  int n = static_cast<int>(state.range(0));
  EnumMode mode = static_cast<EnumMode>(state.range(1));
  NodePtr query = builder(n);
  auto hg = BuildHypergraph(query);
  if (!hg.ok()) {
    state.SkipWithError("hypergraph build failed");
    return;
  }
  long long trees = 0;
  size_t plans = 0;
  for (auto _ : state) {
    EnumOptions opts;
    opts.mode = mode;
    Enumerator en(*hg, opts);
    auto t = en.CountAssociationTrees();
    auto p = en.Enumerate();
    trees = t.ok() ? *t : 0;
    plans = p.ok() ? p->plans.size() : 0;
    benchmark::DoNotOptimize(plans);
  }
  state.counters["trees"] = static_cast<double>(trees);
  state.counters["plans"] = static_cast<double>(plans);
  state.SetLabel(EnumModeName(mode));
}

void BM_Chain(benchmark::State& state) { RunModes(state, Chain); }
void BM_Star(benchmark::State& state) { RunModes(state, Star); }
void BM_Mixed(benchmark::State& state) { RunModes(state, Mixed); }

// Grounds the plan-space shapes in execution: the as-written Mixed query
// over near-unique-key tables (output stays linear in the table size).
void BM_ExecuteMixedSerial(benchmark::State& state) {
  const int n = 5;
  Catalog cat;
  Rng rng(161803);
  RandomRelationOptions ropt;
  ropt.num_rows = static_cast<int>(state.range(0));
  ropt.domain = ropt.num_rows;
  ropt.null_fraction = 0.1;
  AddRandomTables(n, ropt, &rng, &cat);
  NodePtr q = Mixed(n);
  int64_t rows = 0;
  for (auto _ : state) {
    auto r = Execute(q, cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

void Sizes(benchmark::internal::Benchmark* b) {
  for (int n : {3, 4, 5, 6, 7}) {
    for (int mode : {0, 1, 2}) {
      b->Args({n, mode});
    }
  }
}

BENCHMARK(BM_Chain)->Apply(Sizes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Star)->Apply(Sizes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mixed)->Apply(Sizes)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecuteMixedSerial)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_planspace);
