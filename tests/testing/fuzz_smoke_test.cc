// Deterministic smoke for the metamorphic fuzz harness (ctest label
// `fuzz`): a fixed seed range must run clean across the whole oracle
// battery with general-class coverage, and the fault-injection self-test
// must drive the failure -> minimize -> artifact path end to end.
#include <gtest/gtest.h>

#include <filesystem>

#include "testing/artifact.h"
#include "testing/fuzz.h"

namespace gsopt {
namespace {

TEST(FuzzSmokeTest, FixedSeedRangeRunsClean) {
  testing::FuzzOptions opt = testing::FuzzOptions::Default();
  auto stats = testing::RunFuzz(/*seed_start=*/1, /*num_seeds=*/60, opt,
                                /*log=*/nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->cases, 60);
  EXPECT_EQ(stats->failures, 0) << stats->Summary();
  EXPECT_EQ(stats->skipped, 0) << stats->Summary();
  EXPECT_GT(stats->plans_checked, 0u);
  // The acceptance gates at 1/10 the CI seed count: general-class shapes
  // must already dominate a short run.
  EXPECT_GE(stats->Pct(stats->with_view), 30.0) << stats->Summary();
  EXPECT_GE(stats->Pct(stats->with_agg_pred), 20.0) << stats->Summary();
  EXPECT_GT(stats->with_outer_join, 0);
  EXPECT_GT(stats->with_complex_pred, 0);
}

TEST(FuzzSmokeTest, CaseGenerationIsDeterministic) {
  testing::FuzzOptions opt = testing::FuzzOptions::Default();
  for (uint64_t seed : {1ull, 7ull, 23ull}) {
    testing::FuzzCase a = testing::MakeFuzzCase(seed, opt);
    testing::FuzzCase b = testing::MakeFuzzCase(seed, opt);
    EXPECT_EQ(a.query->ToString(), b.query->ToString()) << "seed " << seed;
    ASSERT_EQ(a.catalog.TableNames(), b.catalog.TableNames());
    for (const std::string& name : a.catalog.TableNames()) {
      auto ra = a.catalog.Get(name);
      auto rb = b.catalog.Get(name);
      ASSERT_TRUE(ra.ok() && rb.ok());
      EXPECT_TRUE(Relation::BagEquals(*ra, *rb))
          << "seed " << seed << " table " << name;
    }
  }
}

TEST(FuzzSmokeTest, InjectedFaultIsCaughtMinimizedAndWritten) {
  std::string dir = ::testing::TempDir() + "fuzz_smoke_artifacts";
  std::filesystem::remove_all(dir);

  testing::FuzzOptions opt = testing::FuzzOptions::Default();
  opt.artifact_dir = dir;
  opt.max_failures = 2;
  // Corrupt every checked result (never the syntactic baseline): the
  // oracles must fire on essentially every seed.
  opt.oracle.mutate_checked_result = [](Relation* r) {
    if (r->NumRows() > 0) {
      Relation reduced(r->schema(), r->vschema());
      for (int64_t i = 0; i + 1 < r->NumRows(); ++i) reduced.Add(r->row(i));
      *r = std::move(reduced);
    } else {
      r->AddNullRow();
    }
  };

  auto stats = testing::RunFuzz(/*seed_start=*/1, /*num_seeds=*/20, opt,
                                /*log=*/nullptr);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failures, 2) << stats->Summary();
  ASSERT_EQ(stats->failure_dirs.size(), 2u);

  // Every artifact is a self-contained reproducer: loadable, re-bindable,
  // and minimized to the acceptance bound of <= 6 relations.
  for (const std::string& repro_dir : stats->failure_dirs) {
    auto loaded = testing::LoadRepro(repro_dir);
    ASSERT_TRUE(loaded.ok()) << repro_dir << ": "
                             << loaded.status().ToString();
    EXPECT_FALSE(loaded->sql.empty());
    ASSERT_NE(loaded->query, nullptr);
    EXPECT_LE(loaded->query->BaseRels().size(), 6u) << repro_dir;
  }

  auto listed = testing::ListReproDirs(dir);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed->size(), 2u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gsopt
