// ResourceBudget: deadline stickiness, strided probing, row/plan caps.
#include "base/budget.h"

#include <gtest/gtest.h>

#include <chrono>

namespace gsopt {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

TEST(ResourceBudgetTest, UnlimitedBudgetNeverExhausts) {
  ResourceBudget b = ResourceBudget::Unlimited();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(b.CheckDeadline("t").ok());
  }
  EXPECT_TRUE(b.CheckDeadlineNow("t").ok());
  EXPECT_TRUE(b.ChargeRows(1u << 20, "t").ok());
  EXPECT_EQ(b.PlansRemaining(), ResourceBudget::kUnlimited);
  EXPECT_EQ(b.RemainingTime(), microseconds::max());
}

TEST(ResourceBudgetTest, PastDeadlineExhaustsWithStageInMessage) {
  ResourceBudget b;
  b.WithDeadline(ResourceBudget::Clock::now() - milliseconds(1));
  Status s = b.CheckDeadlineNow("enumerate");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("enumerate"), std::string::npos);
  EXPECT_EQ(b.RemainingTime(), microseconds(0));
}

TEST(ResourceBudgetTest, ExpiryIsSticky) {
  ResourceBudget b;
  b.WithDeadline(ResourceBudget::Clock::now() - milliseconds(1));
  EXPECT_FALSE(b.CheckDeadlineNow("first").ok());
  // Every later probe fails immediately -- including strided ones on ticks
  // that would otherwise skip the clock read.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b.CheckDeadline("later").code(),
              StatusCode::kResourceExhausted);
  }
}

TEST(ResourceBudgetTest, StridedProbeDetectsExpiryWithinOneStride) {
  ResourceBudget b;
  b.WithDeadline(ResourceBudget::Clock::now() - milliseconds(1));
  bool exhausted = false;
  for (uint64_t i = 0; i <= ResourceBudget::kClockStride && !exhausted;
       ++i) {
    exhausted = !b.CheckDeadline("loop").ok();
  }
  EXPECT_TRUE(exhausted);
}

TEST(ResourceBudgetTest, FarDeadlineStaysOk) {
  ResourceBudget b;
  b.WithDeadlineAfter(std::chrono::hours(1));
  EXPECT_TRUE(b.CheckDeadlineNow("t").ok());
  EXPECT_GT(b.RemainingTime(), microseconds(0));
}

TEST(ResourceBudgetTest, RowCapCharges) {
  ResourceBudget b;
  b.WithMaxRows(10);
  EXPECT_TRUE(b.ChargeRows(6, "join").ok());
  EXPECT_TRUE(b.ChargeRows(4, "join").ok());  // exactly at the cap
  Status s = b.ChargeRows(1, "join");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // The message names the tripped cap and both sides of the comparison.
  EXPECT_NE(s.message().find("row cap exceeded"), std::string::npos);
  EXPECT_NE(s.message().find("11 > 10"), std::string::npos);
  EXPECT_EQ(b.rows_charged(), 11u);
}

TEST(ResourceBudgetTest, PlanAccountingIsAdvisory) {
  ResourceBudget b;
  b.WithMaxPlans(100);
  EXPECT_EQ(b.PlansRemaining(), 100u);
  b.AddPlans(40);
  EXPECT_EQ(b.PlansRemaining(), 60u);
  b.AddPlans(100);
  EXPECT_EQ(b.PlansRemaining(), 0u);
  EXPECT_EQ(b.plans_charged(), 140u);
}

TEST(StatusTest, ResourceExhaustedCodeName) {
  Status s = Status::ResourceExhausted("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "ResourceExhausted: boom");
}

}  // namespace
}  // namespace gsopt
