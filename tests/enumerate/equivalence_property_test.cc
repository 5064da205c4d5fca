// The soundness gate (DESIGN.md §6): for randomized join/outer-join queries
// with simple and complex conjunctive predicates, EVERY plan the enumerator
// emits -- in every mode -- must reproduce the as-written result on
// randomized databases (including NULLs). This exercises Theorem 1's
// preserved groups, the MGOJ compensation rules and the identity machinery
// end to end.
#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "algebra/simplify.h"
#include "base/rng.h"
#include "enumerate/enumerator.h"
#include "enumerate/random_query.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

struct Case {
  uint64_t seed;
  int num_rels;
  double loj_prob;
  double foj_prob;
  double extra_atom_prob;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << "seed=" << c.seed << " n=" << c.num_rels
            << " loj=" << c.loj_prob << " foj=" << c.foj_prob
            << " extra=" << c.extra_atom_prob;
}

class EquivalenceProperty : public ::testing::TestWithParam<Case> {};

Catalog MakeCatalog(uint64_t seed, int num_rels) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 7;
  opt.domain = 3;  // small domain: many matches AND many mismatches
  opt.null_fraction = 0.12;
  AddRandomTables(num_rels, opt, &rng, &cat);
  return cat;
}

TEST_P(EquivalenceProperty, AllPlansMatchAsWrittenResult) {
  const Case& c = GetParam();
  Rng rng(c.seed);
  RandomQueryOptions qopt;
  qopt.num_rels = c.num_rels;
  qopt.loj_prob = c.loj_prob;
  qopt.foj_prob = c.foj_prob;
  qopt.extra_atom_prob = c.extra_atom_prob;
  NodePtr raw = MakeRandomQuery(qopt, &rng);

  // The paper's precondition: reordering operates on SIMPLE queries
  // ([BHAR95c] simplification applied first). Verify the simplification
  // pass itself preserves semantics, then reorder the simple query.
  NodePtr query = SimplifyOuterJoins(raw);
  ASSERT_TRUE(IsSimpleQuery(query));
  {
    Catalog cat = MakeCatalog(c.seed * 17 + 5, c.num_rels);
    auto eq = ExecutionEquivalent(raw, query, cat);
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(*eq) << "simplification changed semantics:\nraw: "
                     << raw->ToString() << "\nsimplified: "
                     << query->ToString();
  }

  auto hor = BuildHypergraph(query);
  ASSERT_TRUE(hor.ok()) << hor.status().ToString() << "\n"
                        << query->ToString();
  ASSERT_TRUE(hor->IsAcyclic()) << query->ToString();

  for (EnumMode mode :
       {EnumMode::kBinaryOnly, EnumMode::kBaseline, EnumMode::kGeneralized}) {
    EnumOptions opts;
    opts.mode = mode;
    auto space = Enumerator(*hor, opts).Enumerate();
    if (!space.ok()) {
      // Binary-only mode can legitimately fail to produce any plan for
      // queries that need MGOJ; other modes must always cover the query.
      EXPECT_EQ(mode, EnumMode::kBinaryOnly)
          << space.status().ToString() << "\n" << query->ToString();
      continue;
    }
    ASSERT_FALSE(space->plans.empty());

    for (uint64_t dseed : {c.seed * 31 + 1, c.seed * 31 + 2}) {
      Catalog cat = MakeCatalog(dseed, c.num_rels);
      auto ref = Execute(query, cat);
      ASSERT_TRUE(ref.ok());
      for (const PlanCandidate& cand : space->plans) {
        auto got = Execute(cand.expr, cat);
        ASSERT_TRUE(got.ok()) << cand.expr->ToString();
        ASSERT_TRUE(Relation::BagEquals(*ref, *got))
            << "mode " << EnumModeName(mode) << " dseed " << dseed
            << "\nquery: " << query->ToString()
            << "\nplan:  " << cand.expr->ToString()
            << "\nexpected:\n" << ref->ToString(20)
            << "\ngot:\n" << got->ToString(20);
      }
    }
  }
}

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  uint64_t seed = 1000;
  // Join-only queries (sanity: classic join reordering).
  for (int i = 0; i < 6; ++i) {
    cases.push_back({seed++, 3 + i % 3, 0.0, 0.0, 0.5});
  }
  // Outer-join heavy, simple predicates.
  for (int i = 0; i < 8; ++i) {
    cases.push_back({seed++, 3 + i % 3, 0.7, 0.0, 0.0});
  }
  // Mixed join/LOJ with complex predicates (the paper's target class).
  for (int i = 0; i < 14; ++i) {
    cases.push_back({seed++, 3 + i % 3, 0.45, 0.0, 0.6});
  }
  // Full outer joins in the mix.
  for (int i = 0; i < 12; ++i) {
    cases.push_back({seed++, 3 + i % 3, 0.35, 0.3, 0.5});
  }
  // Larger queries, everything enabled.
  for (int i = 0; i < 6; ++i) {
    cases.push_back({seed++, 5, 0.4, 0.15, 0.5});
  }
  // Deep-outer-join stress: mostly outer joins, frequent complex
  // predicates (exercises operator inversion + compensation rules).
  for (int i = 0; i < 20; ++i) {
    cases.push_back({seed++, 3 + i % 3, 0.6, 0.2, 0.7});
  }
  // Pure FOJ chains with complex predicates.
  for (int i = 0; i < 10; ++i) {
    cases.push_back({seed++, 3 + i % 2, 0.0, 0.8, 0.6});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, EquivalenceProperty,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace gsopt
