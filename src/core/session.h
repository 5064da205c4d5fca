// gsopt::Session -- the serving API. One object wraps the catalog, the
// QueryOptimizer, the executor and a sharded LRU plan cache behind three
// entry points:
//
//   Session session(catalog, SessionOptions{}
//                                .WithBudget(&budget)
//                                .WithSpill(&spill));
//   // One-shot:
//   auto result = session.Query("SELECT * FROM r1 WHERE r1.a = 7");
//   // Prepared, with $n parameters:
//   auto stmt = session.Prepare(
//       "SELECT * FROM r1 JOIN r2 ON r1.k = r2.k WHERE r1.a = $1");
//   auto rows = stmt->Bind({Value::Int(7)}).Execute();
//   // Already-bound algebra trees (tools, tests, fuzzers):
//   auto r2 = session.Run(tree);
//
// Every path funnels through the same plan acquisition step: the bound
// tree's literal constants are lifted to parameter slots
// (ParameterizeQuery, core/plan_cache.h), the parameterized shape is
// fingerprinted together with the optimizer-options signature, and the
// sharded cache is consulted. A hit skips
// simplify/normalize/enumerate/cost entirely -- the cached plan template
// is re-instantiated by substituting this call's values -- while a miss
// optimizes the parameterized tree once and publishes it for every later
// literal instantiation. Since the optimizer never inspects constant
// *values* (selectivity uses 1/distinct for any col=const atom, parameter
// or literal), the cached template is the same plan the literals would
// have produced.
//
// SQL entry points additionally memoize the statement TEXT: a repeated
// Prepare/Query of byte-identical SQL skips lexer/parser/binder and goes
// straight to plan acquisition with the memoized parameterized tree (the
// front-end layer every serving system puts before its plan cache).
// Entries are tagged with the catalog version and dropped when it moves,
// since binding resolves names against the catalog.
//
// Statistics staleness: Session remembers the Catalog::version() its
// QueryOptimizer's statistics were collected at. Any catalog mutation
// bumps that version; the next Session call notices, rebuilds the
// optimizer (re-collecting Statistics) and bumps the cache epoch, so
// stale templates die lazily on their next lookup (counted as
// invalidations) instead of requiring a synchronous flush.
//
// Concurrency: Prepare/Query/Run are safe to call from many threads, such
// as the server's request workers (per-shard cache mutexes; the optimizer is
// rebuilt under a session mutex and handed out as shared_ptr; entries are
// pinned by shared_ptr so eviction cannot free a plan mid-execution) --
// PROVIDED the catalog is not mutated concurrently with serving. An
// execution reads the base tables it scans in place, from its first scan
// until its result is built, so a write must wait until no query is in
// flight. Results are the caller's own rows: a later write does not
// change them.
//
// Budgets: a ResourceBudget in SessionOptions (or per-call ExecuteOptions)
// governs a miss's optimization AND every execution; a hit skips the
// enumeration spend but still threads the budget into execution, so a
// cached plan cannot dodge row caps or deadlines.
#ifndef GSOPT_CORE_SESSION_H_
#define GSOPT_CORE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/execute.h"
#include "base/budget.h"
#include "base/status.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "relational/catalog.h"
#include "relational/relation.h"

namespace gsopt {

struct SessionOptions : ExecPolicyBuilder<SessionOptions> {
  // Optimizer knobs for cache misses. The signature (mode, prune,
  // max_plans, assume_ordered_exec) is folded into every cache key, so two
  // sessions sharing a cache but differing in knobs never serve each
  // other's plans.
  OptimizeOptions optimize;
  // Default execution policy applied to every call; per-call ExecuteOptions
  // override via MergeExecPolicy (pointers when non-null). Serving always
  // runs the optimized kernels. The With* execution setters come from the
  // shared ExecPolicyBuilder mixin (algebra/execute.h), so SessionOptions
  // and ExecuteOptions no longer each re-declare the chain.
  ExecPolicy exec;

  ExecPolicy& policy() { return exec; }
  const ExecPolicy& policy() const { return exec; }
  // The plan cache is PlanCache's default: 256 templates over 8 shards.
  // Disabling it also disables the statement-text memo: every call
  // re-parses and re-optimizes (the "cold" serving mode benchmarks compare
  // against).
  bool use_plan_cache = true;
  // Bounded retry for TRANSIENT execution failures (Status::IsTransient(),
  // i.e. kUnavailable: short spill I/O). Each retry
  // re-executes the already-acquired plan template -- no re-parse or plan
  // search -- after an exponential backoff starting at 500 us. Persistent
  // failures (kResourceExhausted caps, real ENOSPC) are never retried: an
  // identical attempt cannot succeed.
  int max_transient_retries = 2;

  SessionOptions& WithPrune(bool b) { optimize.prune = b; return *this; }
  SessionOptions& WithMaxPlans(size_t n) { optimize.max_plans = n; return *this; }
  // One budget for both halves: miss-path optimization and execution
  // (shadows the mixin setter, which only knows the execution half).
  SessionOptions& WithBudget(ResourceBudget* b) {
    optimize.budget = b;
    exec.budget = b;
    return *this;
  }
  SessionOptions& WithRetries(int n) { max_transient_retries = n; return *this; }
  SessionOptions& WithPlanCache(bool enabled) { use_plan_cache = enabled; return *this; }
};

// Everything one serving call produced: the rows, the runtime stats, the
// (instantiated) plan that computed them, and the dispositions a serving
// layer needs to report -- where the plan came from (cache hit vs fresh
// optimize), how resource pressure degraded it, and how many transient
// retries the execution burned. One value, no side channels: the server's
// wire frames, the shell's \analyze, and the bench drivers all read their
// fields off this struct instead of threading stats pointers and
// degradation plumbing through ExecuteOptions.
struct QueryResult {
  Relation rows;
  NodePtr plan;            // executed plan, parameters substituted
  double plan_cost = 0.0;  // cost-model estimate of the template
  // This call reused an existing template (a plan-cache hit, or a
  // prepared statement re-executing) instead of running the plan search.
  bool cache_hit = false;
  // On a hit these describe the cached entry's ORIGINAL optimization
  // (what the cache saved this call), plus this call's cache traffic.
  DegradationReport degradation;
  OptimizerCounters counters;
  // Transient-failure retries the execution needed before succeeding
  // (0 on a clean first attempt; see SessionOptions::max_transient_retries).
  int transient_retries = 0;
  // Per-operator runtime stats for the executed plan; non-null iff the
  // merged policy had collect_stats set. A caller that instead passes its
  // own ExecuteOptions::stats root keeps the legacy side channel and this
  // stays null. shared_ptr because OperatorStats owns its children;
  // copying a QueryResult shares the tree.
  std::shared_ptr<exec::OperatorStats> stats;
};

class Session;

// A parsed, parameterized, optimized query template. Cheap to copy
// (shared_ptr internals). Obtained from Session::Prepare; executing
// substitutes the bound values into the cached plan template -- no
// parsing or plan search on the hot path. Not thread-safe itself (Bind
// mutates); share the Session, not the statement.
class PreparedStatement {
 public:
  // Number of explicit $n parameters the statement expects.
  int num_params() const { return pq_.num_explicit; }
  // Whether Prepare found the template in the plan cache.
  bool cache_hit() const { return cache_hit_; }
  uint64_t fingerprint() const { return pq_.fingerprint; }
  // The optimized template (parameter slots intact).
  const NodePtr& plan_template() const { return plan_->plan; }
  double plan_cost() const { return plan_->cost; }
  const DegradationReport& degradation() const { return plan_->degradation; }
  // Search-work counters of the optimization that produced the template
  // (on a cache hit: the original producer's, i.e. the work this Prepare
  // skipped).
  const OptimizerCounters& counters() const { return plan_->counters; }

  // Replaces the bound values for slots $1..$n. Fluent:
  //   stmt.Bind({Value::Int(7)}).Execute()
  PreparedStatement& Bind(std::vector<Value> values) {
    bound_ = std::move(values);
    return *this;
  }

  // Executes with the values bound via Bind() (or none).
  StatusOr<QueryResult> Execute(const ExecuteOptions& exec = {});
  // Bind + Execute in one call; does not disturb values set via Bind().
  StatusOr<QueryResult> Execute(std::vector<Value> params,
                                  const ExecuteOptions& exec = {});

  // The fully substituted executable plan for the given explicit values
  // (for EXPLAIN-style inspection without executing). Fails with
  // kInvalidArgument on a parameter-count mismatch.
  StatusOr<NodePtr> ExecutablePlan(const std::vector<Value>& params) const;

 private:
  friend class Session;
  PreparedStatement() = default;

  Session* session_ = nullptr;
  ParameterizedQuery pq_;
  std::shared_ptr<const CachedPlan> plan_;
  uint64_t epoch_ = 0;  // stats epoch plan_ was acquired under
  bool cache_hit_ = false;
  std::vector<Value> bound_;
};

class Session {
 public:
  // The catalog is referenced, not copied; it must outlive the session.
  explicit Session(const Catalog& catalog, SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parse + bind + parameterize + optimize (through the cache). The
  // statement stays valid as long as the session; re-optimizes lazily if
  // catalog statistics move. kInvalidArgument on malformed SQL, unknown
  // tables/columns, or invalid options (max_plans == 0). `budget`, when
  // given, governs this call's miss-path optimization (overriding the
  // session default); a cache hit never spends it.
  StatusOr<PreparedStatement> Prepare(const std::string& sql,
                                      ResourceBudget* budget = nullptr);

  // One-shot convenience: Prepare + Execute with no parameters.
  // kInvalidArgument if the SQL contains $n parameters -- those need the
  // Prepare/Bind lifecycle.
  StatusOr<QueryResult> Query(const std::string& sql,
                                const ExecuteOptions& exec = {});

  // Tree-level entry for callers that already hold a bound algebra tree
  // (tools, fuzz oracles, tests). Same cache-backed pipeline as Query.
  StatusOr<QueryResult> Run(const NodePtr& tree,
                              const ExecuteOptions& exec = {});

  PlanCacheStats cache_stats() const { return cache_.Stats(); }
  const SessionOptions& options() const { return options_; }
  const Catalog& catalog() const { return catalog_; }
  // Stats epoch of the current optimizer (bumped when the catalog moves).
  uint64_t epoch() const;
  // The current optimizer snapshot (rebuilt when the catalog moves).
  // Mostly for introspection (cost model access in tools).
  std::shared_ptr<const QueryOptimizer> optimizer();

 private:
  friend class PreparedStatement;

  // Plan acquisition: cache lookup, else optimize (+ insert, unless the
  // caller defers). On success `hit`, `traffic` (this call's cache
  // counters) are filled. With defer_install, a freshly optimized miss is
  // NOT published to the cache -- the caller publishes via PublishPlan
  // after the template proves itself (first execution succeeds), so a
  // failing miss can never poison the cache for later callers.
  StatusOr<std::shared_ptr<const CachedPlan>> AcquirePlan(
      const ParameterizedQuery& pq, ResourceBudget* budget, uint64_t* epoch,
      bool* hit, OptimizerCounters* traffic, bool defer_install = false);

  // Publishes a deferred miss (no-op when the cache is disabled); returns
  // evictions caused.
  uint64_t PublishPlan(const std::shared_ptr<const CachedPlan>& plan,
                       uint64_t epoch);

  // SQL front end: the statement-text memo, else parse + bind +
  // parameterize (and memoize). Entries are dropped when the catalog
  // version moves, since binding resolves names against the catalog.
  StatusOr<ParameterizedQuery> ParameterizedFor(const std::string& sql);

  // Shared tail of Query / Run: acquire through the cache, substitute the
  // lifted literals, execute. Rejects unbound $n parameters.
  StatusOr<QueryResult> ServeParameterized(const ParameterizedQuery& pq,
                                             const ExecuteOptions& exec);

  // Shared tail of Run / PreparedStatement::Execute: substitute `values`
  // into the template and execute under merged options.
  StatusOr<QueryResult> ExecuteTemplate(
      const std::shared_ptr<const CachedPlan>& plan,
      const std::vector<Value>& values, bool hit,
      const OptimizerCounters& traffic, const ExecuteOptions& exec);

  // Rebuilds the optimizer if the catalog version moved; returns the
  // current snapshot and (via out-param) the stats epoch.
  std::shared_ptr<const QueryOptimizer> RefreshOptimizer(uint64_t* epoch);

  // Per-call ExecuteOptions override session defaults field-by-field.
  ExecuteOptions MergedExec(const ExecuteOptions& exec) const;

  // Cache key: canonical tree serialization + options signature.
  std::string KeyCanonical(const std::string& tree_canonical) const;

  const Catalog& catalog_;
  SessionOptions options_;
  PlanCache cache_;

  mutable std::mutex mu_;  // guards optimizer_ / seen_version_ / epoch_
  std::shared_ptr<const QueryOptimizer> optimizer_;
  uint64_t seen_version_ = 0;
  uint64_t epoch_ = 0;

  struct TextEntry {
    ParameterizedQuery pq;
    uint64_t version = 0;  // catalog version the text was bound against
  };
  mutable std::mutex text_mu_;  // guards text_cache_
  std::unordered_map<std::string, TextEntry> text_cache_;
};

}  // namespace gsopt

#endif  // GSOPT_CORE_SESSION_H_
