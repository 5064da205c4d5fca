// Unit tests for the random query generator, focused on the general-class
// extensions: duplicate column-pair predicates (the `p AND p` shape that
// tautological-conjunct handling must survive), GROUP BY views with
// aggregated-column predicates, root WHERE filters, and generation
// determinism.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algebra/execute.h"
#include "algebra/simplify.h"
#include "base/rng.h"
#include "enumerate/enumerator.h"
#include "enumerate/random_query.h"
#include "hypergraph/build.h"
#include "relational/datagen.h"
#include "sql/binder.h"
#include "testing/oracles.h"
#include "testing/sql_emit.h"

namespace gsopt {
namespace {

// Does any predicate in the tree hold two atoms over the same column pair?
// `exact` additionally requires the comparison operator to match (the
// `p AND p` duplicate-conjunct shape).
bool HasDupPair(const NodePtr& node, bool exact) {
  if (node == nullptr) return false;
  const auto& atoms = node->pred().atoms();
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (size_t j = i + 1; j < atoms.size(); ++j) {
      if (atoms[i].lhs == nullptr || atoms[j].lhs == nullptr ||
          atoms[i].rhs == nullptr || atoms[j].rhs == nullptr) {
        continue;
      }
      bool same_cols = atoms[i].lhs->ToString() == atoms[j].lhs->ToString() &&
                       atoms[i].rhs->ToString() == atoms[j].rhs->ToString();
      if (same_cols && (!exact || atoms[i].SameAs(atoms[j]))) return true;
    }
  }
  return HasDupPair(node->left(), exact) || HasDupPair(node->right(), exact);
}

TEST(RandomQueryTest, DupPairProbabilityRepeatsColumnPairs) {
  RandomQueryOptions opt;
  opt.num_rels = 3;
  opt.extra_atom_prob = 1.0;
  opt.dup_pair_prob = 1.0;
  int dup_trees = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomQueryFeatures features;
    NodePtr q = MakeRandomQuery(opt, &rng, &features);
    EXPECT_TRUE(features.has_dup_pair) << "seed " << seed;
    if (HasDupPair(q, /*exact=*/false)) ++dup_trees;
  }
  EXPECT_EQ(dup_trees, 20);
}

TEST(RandomQueryTest, DupPairDisabledNeverRepeats) {
  // The pre-fix behaviour, now an explicit knob: dup_pair_prob = 0 can
  // still repeat a pair by chance through independent draws, but the
  // drawn-again path must be reported via features only when the dup
  // branch fired.
  RandomQueryOptions opt;
  opt.num_rels = 3;
  opt.extra_atom_prob = 1.0;
  opt.dup_pair_prob = 0.0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomQueryFeatures features;
    MakeRandomQuery(opt, &rng, &features);
    EXPECT_FALSE(features.has_dup_pair) << "seed " << seed;
  }
}

TEST(RandomQueryTest, ExactDuplicateConjunctIsGeneratedAndStaysCorrect) {
  // With the operator drawn independently, some seeds produce the exact
  // `p AND p` duplicate conjunct. Those queries must still survive the
  // whole pipeline: every enumerated plan bag-equals the syntactic result
  // (tautological-conjunct handling in simplification and enumeration).
  RandomQueryOptions opt;
  opt.num_rels = 3;
  opt.extra_atom_prob = 1.0;
  opt.dup_pair_prob = 1.0;
  int exact_dups = 0;
  for (uint64_t seed = 1; seed <= 40 && exact_dups < 3; ++seed) {
    Rng rng(seed);
    NodePtr q = MakeRandomQuery(opt, &rng);
    if (!HasDupPair(q, /*exact=*/true)) continue;
    ++exact_dups;

    Catalog cat;
    Rng drng(seed * 101 + 7);
    RandomRelationOptions dopt;
    dopt.num_rows = 7;
    dopt.domain = 3;
    dopt.null_fraction = 0.15;
    AddRandomTables(opt.num_rels, dopt, &drng, &cat);

    testing::OracleOptions oopt;
    Rng orng(seed * 13 + 1);
    auto outcome = testing::CheckQuery(q, cat, oopt, &orng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_FALSE(outcome->skipped);
    EXPECT_FALSE(outcome->failed)
        << "seed " << seed << ": " << outcome->ToString() << "\n"
        << q->ToString();
    EXPECT_GT(outcome->plans_checked, 0u);
  }
  EXPECT_GE(exact_dups, 3) << "no seed produced an exact duplicate conjunct";
}

TEST(RandomQueryTest, GeneralClassCoversViewsAndAggPredicates) {
  RandomQueryOptions opt;
  opt.num_rels = 4;
  opt.view_prob = 1.0;
  opt.agg_pred_prob = 1.0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    RandomQueryFeatures features;
    NodePtr q = MakeGeneralRandomQuery(opt, &rng, &features);
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(features.has_view) << "seed " << seed;
    EXPECT_TRUE(features.has_agg_pred) << "seed " << seed;
  }
}

TEST(RandomQueryTest, WhereFiltersRootAndRoundTripsAsWhereClause) {
  RandomQueryOptions opt;
  opt.num_rels = 4;
  opt.view_prob = 0.5;
  opt.order_by_prob = 0.5;
  opt.where_prob = 1.0;
  Catalog cat;
  Rng drng(17);
  RandomRelationOptions dopt;
  dopt.num_rows = 8;
  dopt.domain = 6;
  dopt.null_fraction = 0.2;
  AddRandomTables(opt.num_rels, dopt, &drng, &cat);
  bool saw_const = false, saw_null_test = false, saw_cross = false,
       saw_agg = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    RandomQueryFeatures features;
    NodePtr q = MakeGeneralRandomQuery(opt, &rng, &features);
    ASSERT_TRUE(features.has_where) << "seed " << seed;
    // The selection sits directly below the optional ORDER BY.
    NodePtr body = q->kind() == OpKind::kSort ? q->left() : q;
    ASSERT_EQ(body->kind(), OpKind::kSelect) << q->ToString();
    ASSERT_TRUE(body->left()->kind() == OpKind::kInnerJoin ||
                body->left()->kind() == OpKind::kLeftOuterJoin ||
                body->left()->kind() == OpKind::kRightOuterJoin ||
                body->left()->kind() == OpKind::kFullOuterJoin)
        << q->ToString();
    for (const Atom& a : body->pred().atoms()) {
      std::set<std::string> rels = a.RelNames();
      if (a.kind != Atom::Kind::kCompare) {
        saw_null_test = true;
      } else if (rels.size() == 2) {
        saw_cross = true;
      } else {
        saw_const = true;
      }
      if (rels.count("v")) saw_agg = true;
    }
    // EmitSql renders the root selection as the statement's WHERE clause;
    // the re-bound text answers exactly like the tree.
    auto emitted = testing::EmitSql(q, cat);
    ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
    EXPECT_NE(emitted->sql.find(" WHERE "), std::string::npos);
    auto bound = sql::ParseAndBind(emitted->sql, cat);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString() << "\n"
                            << emitted->sql;
    auto want = Execute(emitted->reference, cat);
    auto got = Execute(*bound, cat);
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_TRUE(Relation::BagEquals(*want, *got)) << emitted->sql;
  }
  EXPECT_TRUE(saw_const);
  EXPECT_TRUE(saw_null_test);
  EXPECT_TRUE(saw_cross);
  EXPECT_TRUE(saw_agg);
}

TEST(RandomQueryTest, SameSeedSameQuery) {
  RandomQueryOptions opt;
  opt.num_rels = 5;
  opt.view_prob = 0.5;
  opt.dup_pair_prob = 0.3;
  opt.extra_atom_prob = 0.7;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng a(seed), b(seed);
    NodePtr qa = MakeGeneralRandomQuery(opt, &a);
    NodePtr qb = MakeGeneralRandomQuery(opt, &b);
    EXPECT_EQ(qa->ToString(), qb->ToString()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gsopt
