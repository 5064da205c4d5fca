// End-to-end torture property: random queries where a random join/outer-
// join subtree is wrapped in a GROUP BY view and the remaining relations
// attach through predicates that may reference the aggregate output. The
// full pipeline (simplify -> normalize/pull-up -> hypergraph -> enumerate
// -> compensate) must keep EVERY plan bag-equal to the as-written result.
#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "enumerate/random_query.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Case {
  uint64_t seed;
  int view_rels;   // relations inside the aggregation view
  int outer_rels;  // relations joined around it
  bool agg_pred;   // outer predicate references the aggregate output
};

class FullPipelineProperty : public ::testing::TestWithParam<Case> {};

TEST_P(FullPipelineProperty, EveryPlanMatchesAsWritten) {
  const Case& c = GetParam();
  Rng rng(c.seed);

  // Aggregation view over a random join/outer-join tree on r1..r<view>.
  RandomQueryOptions vopt;
  vopt.num_rels = c.view_rels;
  vopt.loj_prob = 0.4;
  vopt.foj_prob = 0.0;
  vopt.extra_atom_prob = 0.3;
  NodePtr view_base = MakeRandomQuery(vopt, &rng);

  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "b"}};
  if (c.view_rels >= 2) spec.group_cols.push_back(Attribute{"r2", "b"});
  exec::AggSpec agg;
  agg.func = rng.Bernoulli(0.5) ? exec::AggFunc::kCount : exec::AggFunc::kMax;
  agg.input = Scalar::Column("r1", "c");
  agg.out_rel = "V";
  agg.out_name = "agg";
  spec.aggs = {agg};
  NodePtr query = Node::GroupBy(view_base, spec);

  // Attach the remaining relations one at a time with random operators.
  for (int i = 0; i < c.outer_rels; ++i) {
    std::string rel = "r" + std::to_string(c.view_rels + 1 + i);
    Predicate p(MakeAtom("r1", "b", CmpOp::kEq, rel, "a"));
    if (c.agg_pred && i == 0) {
      CmpOp op = rng.Bernoulli(0.5) ? CmpOp::kLe : CmpOp::kNe;
      p.AddAtom(MakeAtom(rel, "b", op, "V", "agg"));
    }
    double roll = rng.NextDouble();
    if (roll < 0.4) {
      query = Node::LeftOuterJoin(query, Node::Leaf(rel), p);
    } else if (roll < 0.6) {
      query = Node::RightOuterJoin(Node::Leaf(rel), query, p);
    } else {
      query = Node::Join(query, Node::Leaf(rel), p);
    }
  }

  int total_rels = c.view_rels + c.outer_rels;
  for (uint64_t dseed : {c.seed * 7 + 1, c.seed * 7 + 2}) {
    Catalog cat;
    Rng drng(dseed);
    RandomRelationOptions ropt;
    ropt.num_rows = 7;
    ropt.domain = 3;
    ropt.null_fraction = 0.12;
    AddRandomTables(total_rels, ropt, &drng, &cat);

    auto ref = Execute(query, cat);
    ASSERT_TRUE(ref.ok()) << query->ToString();

    QueryOptimizer opt(cat);
    OptimizeOptions oo;
    oo.prune = false;
    auto space = opt.EnumeratePlanSpace(query, oo);
    ASSERT_TRUE(space.ok()) << space.status().ToString() << "\n"
                            << query->ToString();
    ASSERT_FALSE(space->plans.empty());
    for (const PlanInfo& p : space->plans) {
      auto got = Execute(p.expr, cat);
      ASSERT_TRUE(got.ok()) << p.expr->ToString();
      ASSERT_TRUE(Relation::BagEquals(*ref, *got))
          << "seed " << c.seed << " dseed " << dseed
          << "\nquery: " << query->ToString()
          << "\nplan:  " << p.expr->ToString();
    }
    // And the pruned pipeline picks an equivalent plan too.
    auto best = opt.Optimize(query);
    ASSERT_TRUE(best.ok());
    auto got = Execute(best->best.expr, cat);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(Relation::BagEquals(*ref, *got));
  }
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  uint64_t seed = 5000;
  for (int view_rels : {1, 2, 3}) {
    for (int outer_rels : {1, 2}) {
      for (bool agg_pred : {false, true}) {
        for (int rep = 0; rep < 3; ++rep) {
          cases.push_back({seed++, view_rels, outer_rels, agg_pred});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AggViews, FullPipelineProperty,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace gsopt
