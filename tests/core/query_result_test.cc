// The serving-API redesign surface: QueryResult carries rows + stats +
// dispositions as one value (no side channels), the shared ExecPolicy /
// ExecPolicyBuilder mixin gives SessionOptions and ExecuteOptions one
// merge rule instead of triplicated With* chains, and the wire-stable error
// taxonomy (ErrorClass, IsRetryable) keeps its documented contract.
#include "core/session.h"

#include <gtest/gtest.h>

#include <string>

#include "algebra/execute.h"
#include "base/rng.h"
#include "base/status.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  Rng rng(11);
  RandomRelationOptions opt;
  opt.num_rows = 25;
  opt.domain = 6;
  AddRandomTables(3, opt, &rng, &cat);
  return cat;
}

// ---------------------------------------------------------------------------
// MergeExecPolicy semantics.

TEST(ExecPolicy, MergePointersOverrideWhenNonNull) {
  ResourceBudget session_budget;
  ResourceBudget call_budget;
  ExecPolicy base;
  base.budget = &session_budget;
  base.collect_stats = true;

  ExecPolicy call;  // everything defaulted: base wins wholesale
  ExecPolicy merged = MergeExecPolicy(base, call);
  EXPECT_EQ(merged.budget, &session_budget);
  EXPECT_TRUE(merged.collect_stats);

  call.budget = &call_budget;
  merged = MergeExecPolicy(base, call);
  EXPECT_EQ(merged.budget, &call_budget) << "per-call pointer must win";
}

TEST(ExecPolicy, CollectStatsIsStickyOr) {
  ExecPolicy base;
  base.collect_stats = true;
  ExecPolicy call;  // false
  EXPECT_TRUE(MergeExecPolicy(base, call).collect_stats)
      << "a call cannot un-request session-level stats collection";
  EXPECT_TRUE(MergeExecPolicy(call, base).collect_stats);
}

// The shared builder mixin: both option structs expose the same fluent
// chain, writing through to their embedded policy.
TEST(ExecPolicy, BuilderMixinCoversBothOptionStructs) {
  ResourceBudget budget;
  exec::SpillConfig spill;
  ExecuteOptions xo;
  xo.WithBudget(&budget).WithSpill(&spill).WithCollectStats();
  EXPECT_EQ(xo.budget, &budget);
  EXPECT_EQ(xo.spill, &spill);
  EXPECT_TRUE(xo.collect_stats);

  SessionOptions so;
  so.WithSpill(&spill).WithCollectStats();
  EXPECT_EQ(so.exec.spill, &spill);
  EXPECT_TRUE(so.exec.collect_stats);
  // SessionOptions::WithBudget covers BOTH halves: optimization and
  // execution share one budget.
  so.WithBudget(&budget);
  EXPECT_EQ(so.optimize.budget, &budget);
  EXPECT_EQ(so.exec.budget, &budget);
}

// ---------------------------------------------------------------------------
// QueryResult: one value, no side channels.

TEST(QueryResult, CarriesRowsPlanAndDisposition) {
  Catalog cat = MakeCatalog();
  Session session(cat);
  auto r1 = session.Query("SELECT * FROM r1 WHERE r1.a = 2");
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(r1.value().plan, nullptr);
  EXPECT_FALSE(r1.value().cache_hit) << "first serve optimizes";
  EXPECT_EQ(r1.value().transient_retries, 0);
  EXPECT_EQ(r1.value().stats, nullptr) << "stats are opt-in";

  auto r2 = session.Query("SELECT * FROM r1 WHERE r1.a = 5");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().cache_hit)
      << "same shape, different literal: template reuse";
}

TEST(QueryResult, CollectStatsPopulatesOwnedStatsTree) {
  Catalog cat = MakeCatalog();
  Session session(cat);
  ExecuteOptions xo;
  xo.WithCollectStats();
  auto r = session.Query("SELECT * FROM r1 JOIN r2 ON r1.a = r2.a", xo);
  ASSERT_TRUE(r.ok());
  ASSERT_NE(r.value().stats, nullptr);
  // The root operator's output is the result itself.
  EXPECT_EQ(r.value().stats->rows_out,
            static_cast<uint64_t>(r.value().rows.NumRows()));

  // A caller-owned stats root keeps the legacy side channel and the
  // result's owned tree stays null (no double accounting).
  exec::OperatorStats mine;
  ExecuteOptions legacy;
  legacy.WithCollectStats().WithStats(&mine);
  auto r2 = session.Query("SELECT * FROM r2", legacy);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().stats, nullptr);
}

TEST(QueryResult, SessionLevelCollectStatsAppliesToEveryCall) {
  Catalog cat = MakeCatalog();
  Session session(cat, SessionOptions{}.WithCollectStats());
  auto r = session.Query("SELECT * FROM r3");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().stats, nullptr);
}

TEST(QueryResult, PreparedExecuteReportsCacheHit) {
  Catalog cat = MakeCatalog();
  Session session(cat);
  auto stmt = session.Prepare("SELECT * FROM r2 WHERE r2.b = $1");
  ASSERT_TRUE(stmt.ok());
  auto r = stmt.value().Execute({Value::Int(3)});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().cache_hit) << "executing a prepared template is reuse";
}

// ---------------------------------------------------------------------------
// The wire-stable error taxonomy.

TEST(ErrorTaxonomy, ClassMappingIsStable) {
  EXPECT_EQ(Status::OK().error_class(), ErrorClass::kOk);
  EXPECT_EQ(Status::InvalidArgument("x").error_class(), ErrorClass::kInvalid);
  EXPECT_EQ(Status::NotFound("x").error_class(), ErrorClass::kInvalid);
  EXPECT_EQ(Status::ResourceExhausted("x").error_class(),
            ErrorClass::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").error_class(), ErrorClass::kTransient);
  EXPECT_EQ(Status::Shed("x").error_class(), ErrorClass::kShed);
  EXPECT_EQ(Status::Internal("x").error_class(), ErrorClass::kInternal);
}

TEST(ErrorTaxonomy, RetryContract) {
  // IsTransient: an identical in-process retry may succeed.
  EXPECT_TRUE(Status::Unavailable("x").IsTransient());
  EXPECT_FALSE(Status::Shed("x").IsTransient())
      << "a shed must not be retried in place against the same server";
  // IsRetryable: the request is worth re-issuing (later / elsewhere).
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::Shed("x").IsRetryable());
  EXPECT_FALSE(Status::ResourceExhausted("x").IsRetryable())
      << "an identical attempt meets the identical cap";
  EXPECT_FALSE(Status::InvalidArgument("x").IsRetryable());
  EXPECT_FALSE(Status::Internal("x").IsRetryable());
}

TEST(ErrorTaxonomy, WireByteRoundTrip) {
  for (ErrorClass cls :
       {ErrorClass::kOk, ErrorClass::kInvalid, ErrorClass::kResourceExhausted,
        ErrorClass::kTransient, ErrorClass::kShed, ErrorClass::kInternal}) {
    EXPECT_EQ(ErrorClassFromWire(static_cast<uint8_t>(cls)), cls);
  }
  // Unknown future bytes degrade to kInternal, never crash.
  EXPECT_EQ(ErrorClassFromWire(250), ErrorClass::kInternal);
  EXPECT_NE(std::string(ErrorClassName(ErrorClass::kShed)), "");
}

}  // namespace
}  // namespace gsopt
