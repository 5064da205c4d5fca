#include "base/fault_injector.h"

#include <gtest/gtest.h>

#include <vector>

namespace gsopt {
namespace {

TEST(FaultInjectorTest, DisabledNeverFires) {
  FaultInjector fi;  // default options: period 0
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(fi.MaybeFail(FaultSite::kAlloc, "test").ok());
  }
  EXPECT_EQ(fi.fired_total(), 0u);
  EXPECT_EQ(fi.probes(FaultSite::kAlloc), 1000u);
}

TEST(FaultInjectorTest, PeriodOneFiresEveryProbe) {
  FaultInjector::Options o;
  o.seed = 7;
  o.period = 1;
  FaultInjector fi(o);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fi.MaybeFail(FaultSite::kAlloc, "test").ok());
  }
  EXPECT_EQ(fi.fired(FaultSite::kAlloc), 10u);
}

TEST(FaultInjectorTest, ScheduleIsDeterministicInSeed) {
  auto schedule = [](uint64_t seed) {
    FaultInjector::Options o;
    o.seed = seed;
    o.period = 5;
    FaultInjector fi(o);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(!fi.MaybeFail(FaultSite::kSpillWrite, "test").ok());
    }
    return fired;
  };
  EXPECT_EQ(schedule(123), schedule(123));
  EXPECT_NE(schedule(123), schedule(124));
}

TEST(FaultInjectorTest, PeriodRoughlyControlsRate) {
  FaultInjector::Options o;
  o.seed = 99;
  o.period = 10;
  FaultInjector fi(o);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!fi.MaybeFail(FaultSite::kBudgetCheck, "test").ok()) ++fired;
  }
  // ~100 expected; allow generous slack, the draw is hash-based.
  EXPECT_GT(fired, 30);
  EXPECT_LT(fired, 300);
}

TEST(FaultInjectorTest, SiteMaskRestrictsFiring) {
  FaultInjector::Options o;
  o.seed = 1;
  o.period = 1;
  o.site_mask = FaultInjector::MaskOf({FaultSite::kSpillRead});
  FaultInjector fi(o);
  EXPECT_TRUE(fi.MaybeFail(FaultSite::kAlloc, "test").ok());
  EXPECT_FALSE(fi.MaybeFail(FaultSite::kSpillRead, "test").ok());
}

TEST(FaultInjectorTest, MaxFaultsBoundsTotalFires) {
  FaultInjector::Options o;
  o.seed = 5;
  o.period = 1;
  o.max_faults = 3;
  FaultInjector fi(o);
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    if (!fi.MaybeFail(FaultSite::kAlloc, "test").ok()) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fi.fired_total(), 3u);
}

TEST(FaultInjectorTest, StatusTaxonomyMatchesSites) {
  FaultInjector::Options o;
  o.seed = 11;
  o.period = 1;
  FaultInjector fi(o);
  // Persistent conditions: resource exhaustion (never retried).
  Status alloc = fi.MaybeFail(FaultSite::kAlloc, "t");
  EXPECT_EQ(alloc.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(alloc.IsTransient());
  Status open = fi.MaybeFail(FaultSite::kSpillOpen, "t");
  EXPECT_EQ(open.code(), StatusCode::kResourceExhausted);
  Status budget = fi.MaybeFail(FaultSite::kBudgetCheck, "t");
  EXPECT_EQ(budget.code(), StatusCode::kResourceExhausted);
  // Transient conditions: unavailable (Session retry-eligible).
  Status read = fi.MaybeFail(FaultSite::kSpillRead, "t");
  EXPECT_EQ(read.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(read.IsTransient());
  // Write faults alternate between ENOSPC-class and short-write, but are
  // always one of the two typed classes.
  for (int i = 0; i < 20; ++i) {
    Status w = fi.MaybeFail(FaultSite::kSpillWrite, "t");
    EXPECT_TRUE(w.code() == StatusCode::kResourceExhausted ||
                w.code() == StatusCode::kUnavailable)
        << w.ToString();
  }
}

TEST(FaultInjectorTest, MessagesAreMarkedInjectedAndLocated) {
  FaultInjector::Options o;
  o.seed = 3;
  o.period = 1;
  FaultInjector fi(o);
  Status s = fi.MaybeFail(FaultSite::kAlloc, "join-build");
  EXPECT_NE(s.message().find("injected"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("join-build"), std::string::npos) << s.ToString();
}

TEST(FaultInjectorTest, SiteNamesAreDistinct) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(FaultSite::kNumSites); ++i) {
    for (uint32_t j = i + 1; j < static_cast<uint32_t>(FaultSite::kNumSites);
         ++j) {
      EXPECT_STRNE(FaultSiteName(static_cast<FaultSite>(i)),
                   FaultSiteName(static_cast<FaultSite>(j)));
    }
  }
}

}  // namespace
}  // namespace gsopt
