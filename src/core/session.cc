#include "core/session.h"

#include <chrono>
#include <thread>
#include <utility>

#include "base/check.h"
#include "sql/binder.h"

namespace gsopt {

namespace {

// Distinct SQL texts memoized past the parser (reset wholesale when full;
// texts are many-to-one onto plan-cache entries because literals differ
// where fingerprints do not).
constexpr size_t kTextCacheCapacity = 1024;

// First backoff before a transient-failure retry; doubles per retry.
constexpr std::chrono::microseconds kRetryBackoff{500};

}  // namespace

StatusOr<QueryResult> PreparedStatement::Execute(const ExecuteOptions& exec) {
  return Execute(bound_, exec);
}

StatusOr<QueryResult> PreparedStatement::Execute(std::vector<Value> params,
                                                   const ExecuteOptions& exec) {
  GSOPT_CHECK(session_ != nullptr);
  if (static_cast<int>(params.size()) != pq_.num_explicit) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(pq_.num_explicit) +
        " parameter(s), " + std::to_string(params.size()) + " bound");
  }
  ExecuteOptions merged = session_->MergedExec(exec);
  // Statistics may have moved since Prepare (or the last Execute); the
  // epoch check re-acquires through the cache so a stale template is
  // re-optimized at most once per epoch, not per call. The current epoch
  // is read through RefreshOptimizer, which notices a catalog write by
  // itself. A fresh-epoch execute is a template reuse: no plan search
  // happens on this call.
  bool hit = true;
  bool deferred = false;
  OptimizerCounters traffic;
  uint64_t current = 0;
  session_->RefreshOptimizer(&current);
  if (epoch_ != current) {
    uint64_t epoch = 0;
    GSOPT_ASSIGN_OR_RETURN(
        plan_, session_->AcquirePlan(pq_, merged.budget, &epoch, &hit,
                                     &traffic, /*defer_install=*/true));
    epoch_ = epoch;
    cache_hit_ = hit;
    deferred = !hit;
  }
  // Full slot vector: explicit $n values first, then the literals lifted
  // at Prepare time.
  std::vector<Value> values = std::move(params);
  values.insert(values.end(), pq_.lifted.begin(), pq_.lifted.end());
  StatusOr<QueryResult> result =
      session_->ExecuteTemplate(plan_, values, hit, traffic, merged);
  if (result.ok() && deferred) {
    // The re-optimized template proved itself; publish it now. A failing
    // template is never published (plan-cache poisoning guard).
    result->counters.cache_evictions += session_->PublishPlan(plan_, epoch_);
  }
  return result;
}

StatusOr<NodePtr> PreparedStatement::ExecutablePlan(
    const std::vector<Value>& params) const {
  if (static_cast<int>(params.size()) != pq_.num_explicit) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(pq_.num_explicit) +
        " parameter(s), " + std::to_string(params.size()) + " bound");
  }
  std::vector<Value> values = params;
  values.insert(values.end(), pq_.lifted.begin(), pq_.lifted.end());
  return SubstituteParams(plan_->plan, values);
}

Session::Session(const Catalog& catalog, SessionOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

uint64_t Session::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::shared_ptr<const QueryOptimizer> Session::RefreshOptimizer(
    uint64_t* epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (optimizer_ == nullptr || seen_version_ != catalog_.version()) {
    seen_version_ = catalog_.version();
    // Re-collects Statistics from the catalog; cached plans optimized
    // under the previous statistics die lazily via the epoch bump.
    optimizer_ = std::make_shared<const QueryOptimizer>(catalog_);
    ++epoch_;
  }
  if (epoch != nullptr) *epoch = epoch_;
  return optimizer_;
}

std::shared_ptr<const QueryOptimizer> Session::optimizer() {
  return RefreshOptimizer(nullptr);
}

ExecuteOptions Session::MergedExec(const ExecuteOptions& exec) const {
  ExecuteOptions merged;
  merged.policy() = MergeExecPolicy(options_.exec, exec.policy());
  merged.stats = exec.stats;
  return merged;
}

std::string Session::KeyCanonical(const std::string& tree_canonical) const {
  const OptimizeOptions& o = options_.optimize;
  return tree_canonical + "|mode=" +
         std::to_string(static_cast<int>(o.mode)) +
         " prune=" + std::to_string(o.prune ? 1 : 0) +
         " max_plans=" + std::to_string(o.max_plans) +
         " ordered=" + std::to_string(o.assume_ordered_exec ? 1 : 0);
}

uint64_t Session::PublishPlan(const std::shared_ptr<const CachedPlan>& plan,
                              uint64_t epoch) {
  if (!options_.use_plan_cache) return 0;
  return cache_.Insert(Fnv1a64(plan->canonical), epoch, plan);
}

StatusOr<std::shared_ptr<const CachedPlan>> Session::AcquirePlan(
    const ParameterizedQuery& pq, ResourceBudget* budget, uint64_t* epoch,
    bool* hit, OptimizerCounters* traffic, bool defer_install) {
  *hit = false;
  std::shared_ptr<const QueryOptimizer> opt = RefreshOptimizer(epoch);
  const std::string key = KeyCanonical(pq.canonical);
  const uint64_t fp = Fnv1a64(key);
  if (options_.use_plan_cache) {
    bool invalidated = false;
    if (auto cached = cache_.Lookup(fp, key, *epoch, &invalidated)) {
      *hit = true;
      traffic->cache_hits += 1;
      return cached;
    }
    traffic->cache_misses += 1;
    traffic->cache_invalidations += invalidated ? 1 : 0;
  }
  OptimizeOptions oo = options_.optimize;
  if (budget != nullptr) oo.budget = budget;
  GSOPT_ASSIGN_OR_RETURN(OptimizeResult result, opt->Optimize(pq.tree, oo));
  auto plan = std::make_shared<CachedPlan>();
  plan->plan = result.best.expr;
  plan->cost = result.best.cost;
  plan->num_explicit = pq.num_explicit;
  plan->total_slots = pq.total_slots;
  plan->degradation = result.degradation;
  plan->counters = result.counters;
  plan->canonical = key;
  if (options_.use_plan_cache && !defer_install) {
    // A budget-degraded plan is still worth caching: it is valid, and the
    // next caller's budget governs its EXECUTION; whoever wants a better
    // plan can clear the cache or run with a fresh session.
    traffic->cache_evictions += cache_.Insert(fp, *epoch, plan);
  }
  return std::shared_ptr<const CachedPlan>(std::move(plan));
}

StatusOr<QueryResult> Session::ExecuteTemplate(
    const std::shared_ptr<const CachedPlan>& plan,
    const std::vector<Value>& values, bool hit,
    const OptimizerCounters& traffic, const ExecuteOptions& exec) {
  GSOPT_ASSIGN_OR_RETURN(NodePtr executable,
                         SubstituteParams(plan->plan, values));
  // collect_stats: grow the stats tree inside the result instead of a
  // caller-supplied side channel (an explicit ExecuteOptions::stats pointer
  // -- the legacy channel -- wins when both are set).
  ExecuteOptions run = exec;
  std::shared_ptr<exec::OperatorStats> owned_stats;
  if (run.collect_stats && run.stats == nullptr) {
    owned_stats = std::make_shared<exec::OperatorStats>();
    run.stats = owned_stats.get();
  }
  // Transient failures (kUnavailable: short spill I/O) are retried with
  // bounded exponential backoff; an identical attempt may succeed.
  // Persistent failures (caps, real ENOSPC) propagate immediately.
  int retries = 0;
  StatusOr<Relation> rows = gsopt::Execute(executable, catalog_, run);
  while (!rows.ok() && rows.status().IsTransient() &&
         retries < options_.max_transient_retries) {
    // Reset the stats tree: the retry re-runs every operator from
    // scratch and must not double-count the failed attempt.
    if (run.stats != nullptr) *run.stats = exec::OperatorStats{};
    std::this_thread::sleep_for(kRetryBackoff * (1LL << retries));
    ++retries;
    rows = gsopt::Execute(executable, catalog_, run);
  }
  GSOPT_RETURN_IF_ERROR(rows.status());
  QueryResult out;
  out.rows = std::move(rows).value();
  out.stats = std::move(owned_stats);
  out.transient_retries = retries;
  out.plan = std::move(executable);
  out.plan_cost = plan->cost;
  out.cache_hit = hit;
  out.degradation = plan->degradation;
  out.counters = plan->counters;
  out.counters.cache_hits = traffic.cache_hits;
  out.counters.cache_misses = traffic.cache_misses;
  out.counters.cache_evictions = traffic.cache_evictions;
  out.counters.cache_invalidations = traffic.cache_invalidations;
  return out;
}

StatusOr<ParameterizedQuery> Session::ParameterizedFor(
    const std::string& sql) {
  const uint64_t version = catalog_.version();
  if (options_.use_plan_cache) {
    std::lock_guard<std::mutex> lock(text_mu_);
    auto it = text_cache_.find(sql);
    if (it != text_cache_.end() && it->second.version == version) {
      return it->second.pq;
    }
  }
  GSOPT_ASSIGN_OR_RETURN(NodePtr tree, sql::ParseAndBind(sql, catalog_));
  ParameterizedQuery pq = ParameterizeQuery(tree);
  if (options_.use_plan_cache) {
    std::lock_guard<std::mutex> lock(text_mu_);
    // Wholesale reset at capacity: simpler than a second LRU, and the
    // memo repopulates at parse cost, not optimize cost.
    if (text_cache_.size() >= kTextCacheCapacity) {
      text_cache_.clear();
    }
    text_cache_[sql] = TextEntry{pq, version};
  }
  return pq;
}

StatusOr<PreparedStatement> Session::Prepare(const std::string& sql,
                                             ResourceBudget* budget) {
  if (options_.optimize.max_plans == 0) {
    return Status::InvalidArgument(
        "SessionOptions: max_plans must be positive (a zero cap would "
        "enumerate no plans)");
  }
  PreparedStatement stmt;
  stmt.session_ = this;
  GSOPT_ASSIGN_OR_RETURN(stmt.pq_, ParameterizedFor(sql));
  OptimizerCounters traffic;
  GSOPT_ASSIGN_OR_RETURN(
      stmt.plan_,
      AcquirePlan(stmt.pq_,
                  budget != nullptr ? budget : options_.optimize.budget,
                  &stmt.epoch_, &stmt.cache_hit_, &traffic));
  return stmt;
}

StatusOr<QueryResult> Session::ServeParameterized(
    const ParameterizedQuery& pq, const ExecuteOptions& exec) {
  if (pq.num_explicit > 0) {
    return Status::InvalidArgument(
        "query has " + std::to_string(pq.num_explicit) +
        " unbound parameter(s); use Prepare()/Bind()/Execute()");
  }
  ExecuteOptions merged = MergedExec(exec);
  uint64_t epoch = 0;
  bool hit = false;
  OptimizerCounters traffic;
  GSOPT_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedPlan> plan,
      AcquirePlan(pq, merged.budget, &epoch, &hit, &traffic,
                  /*defer_install=*/true));
  StatusOr<QueryResult> result =
      ExecuteTemplate(plan, pq.lifted, hit, traffic, merged);
  if (result.ok() && !hit) {
    // Publish the freshly optimized template only once it has executed
    // successfully: a miss whose execution fails must never install a
    // template later callers would be served (plan-cache poisoning guard).
    result->counters.cache_evictions += PublishPlan(plan, epoch);
  }
  return result;
}

StatusOr<QueryResult> Session::Query(const std::string& sql,
                                       const ExecuteOptions& exec) {
  if (options_.optimize.max_plans == 0) {
    return Status::InvalidArgument(
        "SessionOptions: max_plans must be positive (a zero cap would "
        "enumerate no plans)");
  }
  // exec.budget threads into the miss-path optimization as well as the
  // execution; unbound $n parameters are rejected (those need the
  // Prepare/Bind lifecycle).
  GSOPT_ASSIGN_OR_RETURN(ParameterizedQuery pq, ParameterizedFor(sql));
  return ServeParameterized(pq, exec);
}

StatusOr<QueryResult> Session::Run(const NodePtr& tree,
                                     const ExecuteOptions& exec) {
  if (tree == nullptr) return Status::InvalidArgument("null query");
  if (options_.optimize.max_plans == 0) {
    return Status::InvalidArgument(
        "SessionOptions: max_plans must be positive (a zero cap would "
        "enumerate no plans)");
  }
  return ServeParameterized(ParameterizeQuery(tree), exec);
}

}  // namespace gsopt
