// Session / PreparedStatement serving layer and the sharded LRU plan
// cache: cross-literal template reuse is exact, statistics-epoch bumps
// invalidate lazily, LRU eviction respects capacity, concurrent serving
// stays exact, and the Session boundary rejects invalid options and
// parameter bindings with kInvalidArgument.
#include "core/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/execute.h"
#include "base/fault_injector.h"
#include "base/rng.h"
#include "core/plan_cache.h"
#include "exec/sort.h"
#include "relational/datagen.h"
#include "sql/binder.h"

namespace gsopt {
namespace {

Catalog MakeCatalog(uint64_t seed, int n, int rows = 20) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = rows;
  opt.domain = 6;
  opt.null_fraction = 0.1;
  AddRandomTables(n, opt, &rng, &cat);
  return cat;
}

// A join query over r1..r3 with a literal pivot in a selection atom.
NodePtr PivotQuery(int64_t pivot) {
  NodePtr j = Node::Join(Node::Leaf("r1"), Node::Leaf("r2"),
                         Predicate(MakeAtom("r1", "a", CmpOp::kEq,
                                            "r2", "a")));
  j = Node::LeftOuterJoin(j, Node::Leaf("r3"),
                          Predicate(MakeAtom("r2", "b", CmpOp::kEq,
                                             "r3", "b")));
  return Node::Select(j, Predicate(MakeConstAtom("r1", "b", CmpOp::kLe,
                                                 Value::Int(pivot))));
}

// The published FNV-1a-64 test vectors, plus segment chaining through the
// seedable offset basis.
TEST(Fnv1a64Test, MatchesPublishedVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("b", Fnv1a64("a")), Fnv1a64("ab"));
}

TEST(ParameterizeQueryTest, LiteralsLiftToSlotsAndFingerprintIsInvariant) {
  ParameterizedQuery a = ParameterizeQuery(PivotQuery(1));
  ParameterizedQuery b = ParameterizeQuery(PivotQuery(4));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.num_explicit, 0);
  ASSERT_EQ(a.lifted.size(), b.lifted.size());
  // The pivot (and only structural difference) landed in the same slot.
  bool found = false;
  for (size_t i = 0; i < a.lifted.size(); ++i) {
    if (a.lifted[i].ToString() != b.lifted[i].ToString()) {
      EXPECT_EQ(a.lifted[i].ToString(), Value::Int(1).ToString());
      EXPECT_EQ(b.lifted[i].ToString(), Value::Int(4).ToString());
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Substituting the lifted values back reproduces the original tree.
  auto restored = SubstituteParams(a.tree, a.lifted);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->ToString(), PivotQuery(1)->ToString());
  // A different shape fingerprints differently.
  ParameterizedQuery other =
      ParameterizeQuery(Node::Select(Node::Leaf("r1"),
                                     Predicate(MakeConstAtom(
                                         "r1", "a", CmpOp::kEq,
                                         Value::Int(1)))));
  EXPECT_NE(other.fingerprint, a.fingerprint);
}

TEST(ParameterizeQueryTest, OrderByDirectionIsPartOfTheFingerprint) {
  // ASC and DESC enforcers must never share a cached template: a hit
  // would replay the wrong output order even though the bags agree.
  auto ordered = [](int64_t pivot, bool desc) {
    exec::SortSpec spec{{Attribute{"r1", "a"}, desc},
                        {Attribute{"r2", "b"}, false}};
    return Node::Sort(PivotQuery(pivot), std::move(spec));
  };
  ParameterizedQuery asc1 = ParameterizeQuery(ordered(1, false));
  ParameterizedQuery asc4 = ParameterizeQuery(ordered(4, false));
  ParameterizedQuery desc1 = ParameterizeQuery(ordered(1, true));
  // Literals still lift: same direction, different pivot -> same template.
  EXPECT_EQ(asc1.fingerprint, asc4.fingerprint);
  EXPECT_EQ(asc1.canonical, asc4.canonical);
  // Flipping one key's direction changes the template identity.
  EXPECT_NE(asc1.fingerprint, desc1.fingerprint);
  // And so does dropping the enforcer entirely.
  ParameterizedQuery bare = ParameterizeQuery(PivotQuery(1));
  EXPECT_NE(asc1.fingerprint, bare.fingerprint);
}

TEST(SubstituteParamsTest, UnboundSlotIsInvalidArgument) {
  NodePtr tree = Node::Select(
      Node::Leaf("r1"),
      Predicate(Atom{Atom::Kind::kCompare, Scalar::Column("r1", "a"),
                     CmpOp::kEq, Scalar::Param(2)}));
  auto st = SubstituteParams(tree, {Value::Int(1)});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanCacheTest, HitAcrossLiteralsIsBagEqualToFreshOptimization) {
  for (uint64_t seed : {501ull, 502ull, 503ull}) {
    Catalog cat = MakeCatalog(seed, 3);
    Session session(cat);
    for (int64_t pivot : {0, 2, 5}) {
      NodePtr q = PivotQuery(pivot);
      auto served = session.Run(q);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      // Fresh literal optimization, no cache anywhere.
      QueryOptimizer opt(cat);
      auto fresh = opt.Optimize(q);
      ASSERT_TRUE(fresh.ok());
      auto expect = Execute(fresh->best.expr, cat);
      ASSERT_TRUE(expect.ok());
      EXPECT_TRUE(Relation::BagEquals(*expect, served->rows))
          << "seed " << seed << " pivot " << pivot;
      EXPECT_EQ(served->cache_hit, pivot != 0) << "pivot " << pivot;
    }
    PlanCacheStats stats = session.cache_stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
  }
}

TEST(PlanCacheTest, CatalogMutationBumpsEpochAndInvalidates) {
  Catalog cat = MakeCatalog(77, 3);
  Session session(cat);
  NodePtr q = PivotQuery(3);
  ASSERT_TRUE(session.Run(q).ok());
  uint64_t epoch_before = session.epoch();

  // New rows change the statistics the cached plan was costed under.
  ASSERT_TRUE(
      cat.Insert("r1", {Value::Int(1), Value::Int(2), Value::Int(3)}).ok());
  auto served = session.Run(q);
  ASSERT_TRUE(served.ok());
  EXPECT_FALSE(served->cache_hit);
  EXPECT_GT(session.epoch(), epoch_before);
  PlanCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  // The re-optimized plan sees the new row.
  auto expect = Execute(q, cat);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(Relation::BagEquals(*expect, served->rows));
  // And the rebuilt entry serves hits again.
  auto again = session.Run(q);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
}

TEST(PlanCacheTest, PreparedExecuteNoticesCatalogWriteByItself) {
  // Regression: Execute used to compare its epoch against the session's
  // last-seen epoch, which only plan acquisition or optimizer() refreshed,
  // so a prepared statement kept serving a template costed under the old
  // statistics. Nothing but Execute runs between the write and the check.
  Catalog cat = MakeCatalog(79, 3);
  Session session(cat);
  auto stmt = session.Prepare(
      "SELECT * FROM r1 JOIN r2 ON r1.a = r2.a WHERE r1.b <= $1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto before = stmt->Execute({Value::Int(3)});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before->cache_hit);  // the template Prepare acquired
  const uint64_t epoch_before = session.epoch();

  ASSERT_TRUE(
      cat.Insert("r1", {Value::Int(1), Value::Int(2), Value::Int(3)}).ok());
  auto after = stmt->Execute({Value::Int(3)});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->cache_hit);  // re-acquired, re-optimized
  EXPECT_GT(session.epoch(), epoch_before);
  EXPECT_EQ(session.cache_stats().invalidations, 1u);
  auto expect = sql::ParseAndBind(
      "SELECT * FROM r1 JOIN r2 ON r1.a = r2.a WHERE r1.b <= 3", cat);
  ASSERT_TRUE(expect.ok());
  auto rows = Execute(*expect, cat);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(Relation::BagEquals(*rows, after->rows));
  // The re-acquired template is current: the next call reuses it.
  auto again = stmt->Execute({Value::Int(3)});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
}

TEST(PlanCacheTest, OutputNamesArePartOfTheCacheKey) {
  // Regression: the canonical form left a projection's output names out,
  // so queries differing only in their SELECT aliases shared one template
  // and the second and third were served the first one's column names.
  Catalog cat = MakeCatalog(83, 1);
  Session session(cat);
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT r1.a AS x FROM r1", "q.x"},
      {"SELECT r1.a AS y FROM r1", "q.y"},
      {"SELECT r1.a FROM r1", "r1.a"},
  };
  for (const auto& [sql, column] : cases) {
    SCOPED_TRACE(sql);
    auto got = session.Query(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got->cache_hit);
    ASSERT_EQ(got->rows.schema().size(), 1);
    EXPECT_EQ(got->rows.schema().attr(0).Qualified(), column);
  }
  EXPECT_EQ(session.cache_stats().hits, 0u);
}

TEST(PlanCacheTest, LruEvictsOldestShapeAtCapacity) {
  PlanCache cache(/*capacity=*/2, /*num_shards=*/1);
  // Three distinct shapes (fingerprints and canonical forms).
  auto entry = [](const std::string& canonical) {
    auto plan = std::make_shared<CachedPlan>();
    plan->canonical = canonical;
    return plan;
  };
  cache.Insert(1, 0, entry("a"));
  cache.Insert(2, 0, entry("b"));
  ASSERT_NE(cache.Lookup(1, "a", 0), nullptr);  // touch: "a" is now MRU
  EXPECT_EQ(cache.Insert(3, 0, entry("c")), 1u);  // evicts "b"
  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_NE(cache.Lookup(1, "a", 0), nullptr);  // survived as MRU
  EXPECT_EQ(cache.Lookup(2, "b", 0), nullptr);  // was evicted
  EXPECT_NE(cache.Lookup(3, "c", 0), nullptr);
}

TEST(PlanCacheTest, ConcurrentServingStaysExact) {
  Catalog cat = MakeCatalog(79, 3);
  Session session(cat);
  // Ground truth per pivot, computed serially without any cache.
  constexpr int kPivots = 4;
  std::vector<Relation> expected;
  for (int64_t p = 0; p < kPivots; ++p) {
    auto r = Execute(PivotQuery(p), cat);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(*r));
  }
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 16;
  std::atomic<int> wrong{0}, errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        int64_t pivot = (t + i) % kPivots;
        auto served = session.Run(PivotQuery(pivot));
        if (!served.ok()) {
          ++errors;
          return;
        }
        if (!Relation::BagEquals(expected[static_cast<size_t>(pivot)],
                                 served->rows)) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  PlanCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kItersPerThread));
  // All pivots share one shape; at least one miss optimized it, and the
  // overwhelming majority of lookups hit.
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kThreads * kItersPerThread -
                                              kThreads));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SessionTest, PreparedStatementBindsExplicitParameters) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", {"k", "v"}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        cat.Insert("t", {Value::Int(i % 4), Value::Int(i)}).ok());
  }
  Session session(cat);
  auto stmt = session.Prepare("SELECT * FROM t WHERE t.k = $1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->num_params(), 1);
  for (int64_t k = 0; k < 4; ++k) {
    auto got = stmt->Bind({Value::Int(k)}).Execute();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->rows.NumRows(), 2);
    // Literal equivalent, outside the session.
    auto tree = sql::ParseAndBind(
        "SELECT * FROM t WHERE t.k = " + std::to_string(k), cat);
    ASSERT_TRUE(tree.ok());
    auto expect = Execute(*tree, cat);
    ASSERT_TRUE(expect.ok());
    EXPECT_TRUE(Relation::BagEquals(*expect, got->rows)) << "k=" << k;
  }
  // The explicit-parameter statement and its literal instantiations share
  // one cached template.
  EXPECT_EQ(session.cache_stats().entries, 1u);
}

TEST(SessionTest, BoundaryValidationIsInvalidArgument) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", {"k"}).ok());
  ASSERT_TRUE(cat.Insert("t", {Value::Int(1)}).ok());

  {  // max_plans == 0 rejected before any parsing work.
    Session bad(cat, SessionOptions{}.WithMaxPlans(0));
    auto q = bad.Query("SELECT * FROM t");
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    auto p = bad.Prepare("SELECT * FROM t");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    auto r = bad.Run(Node::Leaf("t"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  Session session(cat);
  {  // One-shot Query on parameterized SQL needs Prepare/Bind.
    auto q = session.Query("SELECT * FROM t WHERE t.k = $1");
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Parameter-count mismatch at Execute and at ExecutablePlan.
    auto stmt = session.Prepare("SELECT * FROM t WHERE t.k = $1");
    ASSERT_TRUE(stmt.ok());
    auto none = stmt->Execute();
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
    auto extra = stmt->Execute({Value::Int(1), Value::Int(2)});
    ASSERT_FALSE(extra.ok());
    EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);
    auto plan = stmt->ExecutablePlan({});
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  }
  {  // $0 is rejected at parse time ($n indices are 1-based).
    auto stmt = session.Prepare("SELECT * FROM t WHERE t.k = $0");
    ASSERT_FALSE(stmt.ok());
    EXPECT_EQ(stmt.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionTest, TextMemoServesRepeatedSqlAndTracksCatalogVersion) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", {"k", "v"}).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cat.Insert("t", {Value::Int(i), Value::Int(10 * i)}).ok());
  }
  Session session(cat);
  const std::string sql = "SELECT * FROM t WHERE t.k <= 3";
  auto first = session.Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  // Byte-identical text: served past the parser AND the plan search.
  auto memoized = session.Query(sql);
  ASSERT_TRUE(memoized.ok());
  EXPECT_TRUE(memoized->cache_hit);
  EXPECT_TRUE(Relation::BagEquals(first->rows, memoized->rows));
  // A literal variant is a new text but the same fingerprint: still a
  // plan-cache hit, one entry total.
  auto variant = session.Query("SELECT * FROM t WHERE t.k <= 2");
  ASSERT_TRUE(variant.ok());
  EXPECT_TRUE(variant->cache_hit);
  EXPECT_EQ(session.cache_stats().entries, 1u);
  // Catalog mutation: the stale text entry (and plan) must not be served
  // blindly -- the new row shows up in the result.
  ASSERT_TRUE(cat.Insert("t", {Value::Int(0), Value::Int(-1)}).ok());
  auto after = session.Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.NumRows(), first->rows.NumRows() + 1);
}

TEST(SessionTest, MissPathExecutionFailureNeverPoisonsTheCache) {
  // Regression: a miss used to install the optimized template BEFORE the
  // first execution ran. A query whose first execution fails (here: an
  // injected budget-check fault) must leave the cache empty -- the next
  // call re-optimizes and, once execution succeeds, only then publishes.
  Catalog cat = MakeCatalog(81, 3);
  FaultInjector::Options o;
  o.seed = 1;
  o.period = 1;
  o.max_faults = 1;  // exactly the first probe fires
  o.site_mask = FaultInjector::MaskOf({FaultSite::kBudgetCheck});
  FaultInjector fi(o);
  Session session(cat, SessionOptions{}.WithFault(&fi).WithRetries(0));
  NodePtr q = PivotQuery(2);

  auto failed = session.Run(q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.cache_stats().entries, 0u)
      << "failed miss installed a template";

  // Fault exhausted: the rerun is a fresh miss that succeeds and installs.
  auto ok = session.Run(q);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->cache_hit);
  EXPECT_EQ(session.cache_stats().entries, 1u);
  auto hit = session.Run(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  // The poisoning guard must not have changed the answer.
  auto expect = Execute(q, cat);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(Relation::BagEquals(*expect, hit->rows));
}

TEST(SessionTest, TransientFaultIsRetriedPersistentIsNot) {
  Catalog cat = MakeCatalog(82, 3, /*rows=*/40);
  NodePtr q = PivotQuery(3);

  {  // Transient (kUnavailable short spill read): one bounded retry wins.
    // The memory cap forces the spill path, so the first run-file read
    // back draws the one fault.
    ResourceBudget budget;
    budget.WithMaxMemory(2 * 1024);
    exec::SpillConfig spill;
    FaultInjector::Options o;
    o.seed = 2;
    o.period = 1;
    o.max_faults = 1;
    o.site_mask = FaultInjector::MaskOf({FaultSite::kSpillRead});
    FaultInjector fi(o);
    Session session(cat, SessionOptions{}
                             .WithBudget(&budget)
                             .WithSpill(&spill)
                             .WithFault(&fi)
                             .WithRetries(2));
    auto served = session.Run(q);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->transient_retries, 1);
    EXPECT_EQ(fi.fired_total(), 1u);
    EXPECT_EQ(budget.memory_charged(), 0u);
    auto expect = Execute(q, cat);
    ASSERT_TRUE(expect.ok());
    EXPECT_TRUE(Relation::BagEquals(*expect, served->rows));
  }

  {  // Persistent (kResourceExhausted): never retried, one fault consumed.
    FaultInjector::Options o;
    o.seed = 3;
    o.period = 1;
    o.site_mask = FaultInjector::MaskOf({FaultSite::kBudgetCheck});
    FaultInjector fi(o);
    Session session(cat, SessionOptions{}
                             .WithFault(&fi)
                             .WithRetries(3));
    auto served = session.Run(q);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(fi.fired_total(), 1u) << "persistent failure was retried";
  }
}

TEST(SessionTest, CachedPlanSpillsUnderMemoryPressure) {
  Catalog cat = MakeCatalog(83, 3, /*rows=*/60);
  NodePtr q = PivotQuery(4);
  // Reference: unconstrained session.
  Session plain(cat);
  auto expect = plain.Run(q);
  ASSERT_TRUE(expect.ok());

  ResourceBudget budget;
  budget.WithMaxMemory(2 * 1024);
  exec::SpillConfig spill;
  Session session(cat, SessionOptions{}.WithBudget(&budget).WithSpill(&spill));
  auto warm = session.Run(q);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(Relation::BagEquals(expect->rows, warm->rows));
  // The cached template's re-execution degrades out-of-core identically.
  auto hit = session.Run(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(Relation::BagEquals(expect->rows, hit->rows));
  EXPECT_EQ(budget.memory_charged(), 0u);
}

TEST(SessionTest, BudgetGovernsCachedExecutionToo) {
  Catalog cat = MakeCatalog(80, 3, /*rows=*/40);
  Session session(cat);
  NodePtr q = PivotQuery(5);
  ASSERT_TRUE(session.Run(q).ok());  // warm the cache
  // A hit skips enumeration but its execution still honors the budget.
  ResourceBudget tiny;
  tiny.WithMaxRows(1);
  auto served = session.Run(q, ExecuteOptions{}.WithBudget(&tiny));
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace gsopt
