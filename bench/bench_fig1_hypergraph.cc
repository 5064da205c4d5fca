// Experiment F1 (DESIGN.md): hypergraph machinery. Construction, pres(),
// conf() and Theorem-1 DeferredGroups() on Figure-1-shaped queries scaled
// to larger relation counts. The paper: "the preserved sets and conflict
// sets are computed only once from the original hypergraph" -- this bench
// shows that one-time cost.
#include <benchmark/benchmark.h>

#include "report.h"

#include "algebra/execute.h"
#include "algebra/node.h"
#include "base/rng.h"
#include "hypergraph/analysis.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Predicate P(const std::string& r1, const std::string& c1,
            const std::string& r2, const std::string& c2) {
  return Predicate(MakeAtom(r1, c1, CmpOp::kEq, r2, c2));
}

std::string R(int i) { return "r" + std::to_string(i); }

// Fig-1 pattern scaled: r1 -> (r2 ->complex (join chain of k relations)).
NodePtr ScaledQ4(int k) {
  NodePtr chain = Node::Leaf(R(3));
  for (int i = 4; i < 3 + k; ++i) {
    chain = Node::Join(chain, Node::Leaf(R(i)), P(R(i - 1), "c", R(i), "c"));
  }
  Predicate complex = P(R(2), "a", R(3), "a");
  if (k >= 2) complex.AddAtom(MakeAtom(R(2), "b", CmpOp::kEq, R(4), "b"));
  NodePtr mid = Node::LeftOuterJoin(Node::Leaf(R(2)), chain, complex);
  return Node::LeftOuterJoin(Node::Leaf(R(1)), mid, P(R(1), "a", R(2), "a"));
}

void BM_BuildHypergraph(benchmark::State& state) {
  NodePtr q = ScaledQ4(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto hg = BuildHypergraph(q);
    benchmark::DoNotOptimize(hg);
  }
}

void BM_AnalysisPresConf(benchmark::State& state) {
  NodePtr q = ScaledQ4(static_cast<int>(state.range(0)));
  auto hg = BuildHypergraph(q);
  if (!hg.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  int edges = hg->NumEdges();
  for (auto _ : state) {
    HypergraphAnalysis an(*hg);
    int total = 0;
    for (const Hyperedge& e : *&hg->edges()) {
      total += static_cast<int>(an.Conf(e.id).size());
      if (e.kind != EdgeKind::kUndirected) {
        benchmark::DoNotOptimize(an.DeferredGroups(e.id));
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["edges"] = edges;
}

void BM_Acyclicity(benchmark::State& state) {
  NodePtr q = ScaledQ4(static_cast<int>(state.range(0)));
  auto hg = BuildHypergraph(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hg->IsAcyclic());
  }
}

// Grounds the Fig-1 shape in execution: the k=2 ScaledQ4 query (four
// relations) over near-unique-key tables.
void BM_ExecuteQ4Serial(benchmark::State& state) {
  const int k = 2;
  NodePtr q = ScaledQ4(k);
  Catalog cat;
  Rng rng(577215);
  RandomRelationOptions ropt;
  ropt.num_rows = static_cast<int>(state.range(0));
  ropt.domain = ropt.num_rows;
  ropt.null_fraction = 0.1;
  AddRandomTables(2 + k, ropt, &rng, &cat);
  int64_t rows = 0;
  for (auto _ : state) {
    auto r = Execute(q, cat);
    rows = r.ok() ? r->NumRows() : -1;
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_BuildHypergraph)->DenseRange(2, 14, 4);
BENCHMARK(BM_AnalysisPresConf)->DenseRange(2, 14, 4);
BENCHMARK(BM_Acyclicity)->DenseRange(2, 14, 4);
BENCHMARK(BM_ExecuteQ4Serial)
    ->RangeMultiplier(4)
    ->Range(1024, 16384)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gsopt

GSOPT_BENCH_MAIN(bench_fig1_hypergraph);
