// Search-equivalence golden: plan search must emit and pick exactly the
// plans it always has. A fixed seeded set of plan_cold-shaped queries
// (5-7 relations, LOJ/FOJ, GROUP BY views with aggregated-column
// predicates, repeated column pairs including exact `p AND p` duplicates)
// goes through QueryOptimizer::Optimize; each query's best plan text, its
// cost, and the search counters (subplans enumerated, DP cells, DP pruned)
// fold into one FNV-1a checksum. A change to how the enumerator
// deduplicates, costs or prunes subplans that alters any of them moves the
// checksum.
//
// The recorded values predate deduplication by shape hash and the cached
// analysis tables. Re-record them only for a change that is meant to
// alter the search, and say why in CHANGES.md. The cost is printed with
// %.17g, so a platform whose libm log2 rounds differently can move the
// checksum without any change to the search.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>

#include "base/rng.h"
#include "core/optimizer.h"
#include "enumerate/enumerator.h"
#include "enumerate/random_query.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fold(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  // A separator keeps adjacent fields from running together.
  h ^= 0xff;
  h *= kFnvPrime;
  return h;
}

// Plan text with the digits of normalization's aux column names
// (`present<n>`) stripped. The recorded checksums were taken with a
// process-wide suffix on those digits; stripping keeps them valid.
std::string StableText(const NodePtr& plan) {
  std::string text = plan->ToString();
  static const std::string kAux = "present";
  std::string out;
  for (size_t i = 0; i < text.size();) {
    if (text.compare(i, kAux.size(), kAux) == 0) {
      out += kAux;
      i += kAux.size();
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
      continue;
    }
    out += text[i++];
  }
  return out;
}

// The plan_cold generator settings (5 + k % 3 relations, a view on every
// other triple), so the golden covers the shapes that workload searches.
RandomQueryOptions ColdShapedOptions(int k) {
  RandomQueryOptions q;
  q.num_rels = 5 + k % 3;
  q.loj_prob = 0.35;
  q.foj_prob = 0.08;
  q.extra_atom_prob = 0.5;
  q.dup_pair_prob = 0.15;
  q.view_prob = (k / 3) % 2 == 0 ? 1.0 : 0.0;
  q.agg_pred_prob = 0.65;
  q.distinct_prob = 0.3;
  q.agg_arith_prob = 0.3;
  return q;
}

TEST(PlanSearchGoldenTest, SeededColdQueriesKeepTheirPlansAndCounters) {
  constexpr int kQueries = 320;
  Catalog cat;
  Rng drng(23);
  RandomRelationOptions dopt;
  dopt.num_rows = 6;
  dopt.domain = 6;
  dopt.null_fraction = 0.1;
  AddRandomTables(7, dopt, &drng, &cat);
  QueryOptimizer opt(cat);

  Rng rng(19);
  uint64_t h = kFnvOffset;
  int optimized = 0, with_dup = 0, with_view = 0, with_outer = 0;
  for (int k = 0; k < kQueries; ++k) {
    RandomQueryFeatures features;
    NodePtr q = MakeGeneralRandomQuery(ColdShapedOptions(k), &rng, &features);
    with_dup += features.has_dup_pair;
    with_view += features.has_view;
    with_outer += features.has_outer_join;
    auto r = opt.Optimize(q);
    if (!r.ok()) {
      h = Fold(h, "error " + r.status().ToString());
      continue;
    }
    ++optimized;
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.17g", r->best.cost);
    h = Fold(h, StableText(r->best.expr));
    h = Fold(h, cost);
    h = Fold(h, std::to_string(r->counters.subplans_enumerated));
    h = Fold(h, std::to_string(r->counters.dp_cells));
    h = Fold(h, std::to_string(r->counters.dp_pruned));
  }
  // The set must exercise what the checksum is meant to pin.
  EXPECT_EQ(optimized, kQueries);
  EXPECT_GT(with_dup, kQueries / 10);
  EXPECT_GT(with_view, kQueries / 3);
  EXPECT_GT(with_outer, kQueries / 2);
  EXPECT_EQ(h, 0x59d2604f5fd60ull) << std::hex << "checksum 0x" << h;
}

// Without pruning every deduplicated subplan reaches the full set, so the
// whole space (each plan's text, in emission order) pins deduplication
// itself rather than just the winners.
TEST(PlanSearchGoldenTest, SeededUnprunedSpacesKeepEveryPlan) {
  constexpr int kQueries = 100;
  Catalog cat;
  Rng drng(29);
  RandomRelationOptions dopt;
  dopt.num_rows = 6;
  dopt.domain = 6;
  dopt.null_fraction = 0.1;
  AddRandomTables(6, dopt, &drng, &cat);
  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;

  Rng rng(31);
  uint64_t h = kFnvOffset;
  size_t total_plans = 0;
  for (int k = 0; k < kQueries; ++k) {
    RandomQueryOptions qo = ColdShapedOptions(k);
    qo.num_rels = 4 + k % 3;
    qo.dup_pair_prob = 0.5;
    NodePtr q = MakeGeneralRandomQuery(qo, &rng);
    auto space = opt.EnumeratePlanSpace(q, oo);
    ASSERT_TRUE(space.ok()) << space.status().ToString();
    total_plans += space->plans.size();
    h = Fold(h, std::to_string(space->counters.subplans_enumerated));
    h = Fold(h, std::to_string(space->counters.dp_cells));
    for (const PlanInfo& p : space->plans) h = Fold(h, StableText(p.expr));
  }
  EXPECT_GT(total_plans, static_cast<size_t>(10 * kQueries));
  EXPECT_EQ(h, 0xa0d6a01a37500ed0ull) << std::hex << "checksum 0x" << h;
}

// r1 LOJ[r1.a = r2.a AND r1.a = r2.a AND r1.b = r3.b] (r2 JOIN r3): the
// repeated atom is two distinct atom ids that print alike, so plans that
// apply either copy are one plan and must be counted once.
TEST(PlanSearchGoldenTest, RepeatedAtomCollapsesToOnePlan) {
  Atom p = MakeAtom("r1", "a", CmpOp::kEq, "r2", "a");
  Predicate outer({p, p, MakeAtom("r1", "b", CmpOp::kEq, "r3", "b")});
  NodePtr q = Node::LeftOuterJoin(
      Node::Leaf("r1"),
      Node::Join(Node::Leaf("r2"), Node::Leaf("r3"),
                 Predicate(MakeAtom("r2", "c", CmpOp::kEq, "r3", "c"))),
      outer);
  auto hg = BuildHypergraph(q);
  ASSERT_TRUE(hg.ok()) << hg.status().ToString();
  EnumOptions eo;
  eo.mode = EnumMode::kGeneralized;
  auto r = Enumerator(*hg, eo).Enumerate();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->plans.size(), 8u);
  EXPECT_EQ(r->subplans_emitted, 12u);
}

}  // namespace
}  // namespace gsopt
