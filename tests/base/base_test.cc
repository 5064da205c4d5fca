#include <gtest/gtest.h>

#include "base/relset.h"
#include "base/rng.h"
#include "base/status.h"

namespace gsopt {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(err.ToString().find("bad thing"), std::string::npos);
}

TEST(StatusOrTest, ValueAndStatusAccess) {
  {
    // Scoped: GCC 12 otherwise reports -Wmaybe-uninitialized on the
    // variant's Status alternative when `v` is destroyed at the end.
    StatusOr<int> v = 42;
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(*v, 42);
  }
  StatusOr<int> e = Status::NotFound("nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Halve(int x) {
  if (x % 2) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  GSOPT_ASSIGN_OR_RETURN(int h, Halve(x));
  GSOPT_ASSIGN_OR_RETURN(int q, Halve(h));
  return q;
}

TEST(StatusOrTest, AssignOrReturnComposesAndPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // inner Halve(3) fails
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(RelSetTest, BasicSetAlgebra) {
  RelSet a{0, 2, 5};
  RelSet b{2, 3};
  EXPECT_TRUE(a.Contains(2));
  EXPECT_FALSE(a.Contains(1));
  EXPECT_EQ(a.Count(), 3);
  EXPECT_EQ(a.Union(b).Count(), 4);
  EXPECT_EQ(a.Intersect(b), RelSet({2}));
  EXPECT_EQ(a.Minus(b), RelSet({0, 5}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(RelSet({1, 4})));
  EXPECT_TRUE(a.ContainsAll(RelSet({0, 5})));
  EXPECT_FALSE(a.ContainsAll(b));
}

TEST(RelSetTest, FirstNAndIteration) {
  RelSet s = RelSet::FirstN(4);
  EXPECT_EQ(s.Count(), 4);
  EXPECT_EQ(s.First(), 0);
  auto v = RelSet({3, 1, 7}).ToVector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 7);
  EXPECT_EQ(RelSet({1, 3}).ToString(), "{1,3}");
}

TEST(RelSetTest, EmptyBehaviour) {
  RelSet e;
  EXPECT_TRUE(e.Empty());
  EXPECT_EQ(e.Count(), 0);
  EXPECT_TRUE(e.ToVector().empty());
  RelSet s{4};
  s.Remove(4);
  EXPECT_TRUE(s.Empty());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(Rng(123).Next64(), c.Next64());
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
  // Degenerate range.
  EXPECT_EQ(rng.Uniform(9, 9), 9);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  EXPECT_GT(hits, 2100);
  EXPECT_LT(hits, 2900);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace gsopt
