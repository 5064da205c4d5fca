// Plan explorer: the paper's Q4 (Example 3.2) dissected -- hypergraph,
// preserved/conflict sets, and the plan spaces of the three enumeration
// modes, including the sigma*-compensated break-up family.
//
//   $ ./plan_explorer
#include <cstdio>

#include "algebra/execute.h"
#include "algebra/explain.h"
#include "base/rng.h"
#include "core/session.h"
#include "enumerate/enumerator.h"
#include "hypergraph/analysis.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"

using namespace gsopt;  // NOLINT: example brevity

namespace {

Predicate P(const std::string& r1, const std::string& c1,
            const std::string& r2, const std::string& c2) {
  return Predicate(MakeAtom(r1, c1, CmpOp::kEq, r2, c2));
}

// Q4 = r1 ->p12 (r2 ->p24^p25 ((r4 JOIN_p45 r5) JOIN_p35 r3))
NodePtr BuildQ4() {
  Predicate p24_25 =
      Predicate::And(P("r2", "a", "r4", "a"), P("r2", "b", "r5", "b"));
  NodePtr r45 = Node::Join(Node::Leaf("r4"), Node::Leaf("r5"),
                           P("r4", "c", "r5", "c"));
  NodePtr r453 = Node::Join(r45, Node::Leaf("r3"), P("r5", "a", "r3", "a"));
  NodePtr right = Node::LeftOuterJoin(Node::Leaf("r2"), r453, p24_25);
  return Node::LeftOuterJoin(Node::Leaf("r1"), right,
                             P("r1", "a", "r2", "a"));
}

}  // namespace

int main() {
  NodePtr q4 = BuildQ4();
  std::printf("Query Q4 (paper Example 3.2):\n  %s\n\n",
              q4->ToString().c_str());

  auto hg = BuildHypergraph(q4);
  if (!hg.ok()) {
    std::printf("%s\n", hg.status().ToString().c_str());
    return 1;
  }
  std::printf("Hypergraph (paper Figure 1):\n%s\n", hg->ToString().c_str());
  std::printf("acyclic: %s\n\n", hg->IsAcyclic() ? "yes" : "no");

  HypergraphAnalysis an(*hg);
  for (const Hyperedge& e : hg->edges()) {
    std::printf("edge h%d (%s):", e.id, EdgeKindName(e.kind).c_str());
    if (e.kind == EdgeKind::kDirected) {
      std::printf(" pres = {");
      for (const auto& n : hg->RelNamesOf(an.Pres(e.id))) {
        std::printf(" %s", n.c_str());
      }
      std::printf(" }");
    }
    std::printf(" conf = {");
    for (int c : an.Conf(e.id)) std::printf(" h%d", c);
    std::printf(" }\n");
  }
  std::printf("\n");

  for (EnumMode mode : {EnumMode::kBinaryOnly, EnumMode::kBaseline,
                        EnumMode::kGeneralized}) {
    EnumOptions opts;
    opts.mode = mode;
    Enumerator en(*hg, opts);
    auto trees = en.CountAssociationTrees();
    auto result = en.Enumerate();
    std::printf("%-12s association trees: %-6lld plans: %zu (%zu subplans%s)\n",
                EnumModeName(mode).c_str(), trees.ok() ? *trees : -1,
                result.ok() ? result->plans.size() : 0,
                result.ok() ? result->subplans_emitted : 0,
                result.ok() && result->truncated ? ", truncated" : "");
  }
  std::printf("\n");

  // The same enumeration under a tight plan budget: the space truncates
  // gracefully (valid plans, possibly suboptimal) instead of failing.
  {
    ResourceBudget tight;
    tight.WithMaxPlans(10);
    EnumOptions opts;
    opts.mode = EnumMode::kGeneralized;
    opts.budget = &tight;
    auto capped = Enumerator(*hg, opts).Enumerate();
    if (capped.ok()) {
      std::printf("with a 10-subplan budget: %zu plans, truncated: %s\n\n",
                  capped->plans.size(), capped->truncated ? "yes" : "no");
    }
  }

  // Show the paper's break-up family: plans whose root is a generalized
  // selection deferring one of the h2 conjuncts.
  EnumOptions gopts;
  gopts.mode = EnumMode::kGeneralized;
  auto space = Enumerator(*hg, gopts).Enumerate();
  std::printf("GS-compensated plans (the paper's sigma*_p[r1r2] family):\n");
  int shown = 0;
  for (const PlanCandidate& c : space->plans) {
    if (c.expr->kind() != OpKind::kGeneralizedSelection) continue;
    if (shown++ >= 4) break;
    std::printf("  %s\n", c.expr->ToString().c_str());
  }

  // Verify everything against the as-written result on random data.
  Catalog cat;
  Rng rng(5);
  RandomRelationOptions ropt;
  ropt.num_rows = 8;
  ropt.domain = 4;
  ropt.null_fraction = 0.1;
  AddRandomTables(5, ropt, &rng, &cat);
  auto ref = Execute(q4, cat);
  int ok = 0, bad = 0;
  for (const PlanCandidate& c : space->plans) {
    auto got = Execute(c.expr, cat);
    (got.ok() && Relation::BagEquals(*ref, *got)) ? ++ok : ++bad;
  }
  std::printf("\nexecution check on random data: %d/%d plans equivalent\n",
              ok, ok + bad);

  // Serve Q4 through a Session on the same data: the first Run optimizes
  // (a plan-cache miss) and EXPLAIN ANALYZE joins per-operator actuals
  // against the cost model's estimates; the second Run re-instantiates
  // the cached parameterized template -- no enumeration at all.
  Session session(cat);
  auto best = session.Run(q4);
  if (best.ok()) {
    std::printf("\nEXPLAIN ANALYZE of the chosen plan (rung=%s; %s):\n",
                FallbackRungName(best->degradation.rung).c_str(),
                best->counters.ToString().c_str());
    auto analyzed = ExplainAnalyze(best->plan, cat,
                                   session.optimizer()->cost_model());
    if (analyzed.ok()) {
      std::printf("%s", analyzed->text.c_str());
    } else {
      std::printf("  %s\n", analyzed.status().ToString().c_str());
    }
    auto again = session.Run(q4);
    if (again.ok()) {
      std::printf("\nre-served from the plan cache: hit=%s, %lld rows, %s\n",
                  again->cache_hit ? "yes" : "NO (bug!)",
                  static_cast<long long>(again->rows.NumRows()),
                  session.cache_stats().ToString().c_str());
      if (!Relation::BagEquals(again->rows, best->rows)) {
        std::printf("cache-hit result DIVERGES from the cold run!\n");
        ++bad;
      }
    }
  }
  return bad == 0 ? 0 : 1;
}
