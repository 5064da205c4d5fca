// Regression corpus: every checked-in reproducer under tests/corpus/ must
// load, re-bind, and pass the full oracle battery (plan space, forced
// kernel paths, degradation ladder, TLP, SQL round trip). The fuzz driver appends new
// minimized failures here once their bug is fixed; hand-authored cases pin
// the paper shapes (Example 2.1's aggregated-column predicate, DISTINCT
// views, duplicate conjuncts, complex predicates).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/execute.h"
#include "base/rng.h"
#include "sql/binder.h"
#include "testing/artifact.h"
#include "testing/oracles.h"
#include "testing/sql_emit.h"

#ifndef GSOPT_CORPUS_DIR
#error "GSOPT_CORPUS_DIR must point at tests/corpus"
#endif

namespace gsopt {
namespace {

std::vector<std::string> CorpusDirs() {
  auto dirs = testing::ListReproDirs(GSOPT_CORPUS_DIR);
  GSOPT_CHECK(dirs.ok());
  return *dirs;
}

TEST(CorpusTest, CorpusIsPresent) {
  std::vector<std::string> dirs = CorpusDirs();
  ASSERT_GE(dirs.size(), 3u) << "seed corpus went missing";
  bool has_example21 = false;
  for (const std::string& d : dirs) {
    if (d.find("example21") != std::string::npos) has_example21 = true;
  }
  EXPECT_TRUE(has_example21)
      << "corpus must pin Example 2.1's aggregated-column predicate";
}

TEST(CorpusTest, EveryCaseSurvivesTheOracleBattery) {
  for (const std::string& dir : CorpusDirs()) {
    SCOPED_TRACE(dir);
    auto repro = testing::LoadRepro(dir);
    ASSERT_TRUE(repro.ok()) << repro.status().ToString();

    testing::OracleOptions opt;
    Rng rng(0x5eedc0de);
    auto outcome = testing::CheckQuery(repro->query, repro->catalog, opt,
                                       &rng);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->skipped);
    EXPECT_FALSE(outcome->failed) << outcome->ToString();
    EXPECT_GT(outcome->plans_checked, 0u);
  }
}

// Satellite: parse(emit(tree)) binds to a tree that executes bag-equal on
// the corpus queries, including Example 2.1's aggregated-column predicate.
TEST(CorpusTest, SqlRoundTripExecutesBagEqual) {
  int round_tripped = 0;
  for (const std::string& dir : CorpusDirs()) {
    SCOPED_TRACE(dir);
    auto repro = testing::LoadRepro(dir);
    ASSERT_TRUE(repro.ok()) << repro.status().ToString();

    auto emitted = testing::EmitSql(repro->query, repro->catalog);
    ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
    auto rebound = sql::ParseAndBind(emitted->sql, repro->catalog);
    ASSERT_TRUE(rebound.ok()) << rebound.status().ToString() << "\n"
                              << emitted->sql;

    auto eq = ExecutionEquivalent(emitted->reference, *rebound,
                                  repro->catalog);
    ASSERT_TRUE(eq.ok()) << eq.status().ToString();
    EXPECT_TRUE(*eq) << "round trip diverged:\n" << emitted->sql;
    ++round_tripped;
  }
  EXPECT_GE(round_tripped, 3);
}

}  // namespace
}  // namespace gsopt
