// The traced run's serving pipeline: the public calls gsopt::Session makes
// for one request, in the same order, each wrapped in a span by this file.
//
//   Query (plan_cold):      ParseAndBind -> ParameterizeQuery ->
//                           PlanCache::Lookup -> [miss: optimize] ->
//                           SubstituteParams -> Execute -> PlanCache::Insert
//   Execute (serve_warm,    [stale epoch: Lookup -> optimize] ->
//   mutate_mix):            SubstituteParams -> Execute
//                           [-> EncodeRows -> DecodeRows, as the server does]
//
// "optimize" is split into the functions QueryOptimizer::Optimize is built
// from -- SimplifyOuterJoins, NormalizeForReordering, BuildQueryGraph,
// Enumerator::Enumerate, ApplyWrappers with CostModel::Cost, and
// ApplyOrderAwarePass -- so each gets its own span. After the request,
// the traced run also calls the real QueryOptimizer::Optimize on the same
// tree (a bench.verify span, not part of the latency) and counts a
// mismatch if it picked a plan of a different cost.
//
// Like Session, the pipeline rebuilds its QueryOptimizer (re-collecting
// Statistics) when the catalog version moves and bumps its epoch, which
// lazily invalidates older plan-cache entries.
#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "algebra/node.h"
#include "base/status.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "relational/catalog.h"
#include "relational/relation.h"
#include "server/protocol.h"
#include "trace.h"

namespace perfbench {

// Operator kinds by OpKindName, in OpKind order.
const std::vector<std::string>& OperatorNames();

struct PipelineCounters {
  uint64_t requests = 0;
  uint64_t hits = 0;          // template reused or cache hit
  uint64_t misses = 0;
  uint64_t lookups = 0;       // PlanCache::Lookup calls
  uint64_t invalidations = 0;
  uint64_t optimizations = 0;
  uint64_t enumerations = 0;  // Enumerator::Enumerate calls
  uint64_t subplans = 0;
  uint64_t dp_cells = 0;
  uint64_t dp_pruned = 0;
  uint64_t plans_considered = 0;
  uint64_t cost_mismatches = 0;  // split vs QueryOptimizer::Optimize
  uint64_t rebuilds = 0;         // optimizer rebuilds (Statistics::Collect)
  // Executor tallies from the OperatorStats tree (traced requests only).
  std::array<int64_t, 16> op_self_ns{};
  uint64_t rows_in = 0;
  uint64_t result_rows = 0;
  uint64_t probe_rows = 0;
  uint64_t bloom_checks = 0;
  uint64_t bloom_rejects = 0;

  void Add(const PipelineCounters& o);
};

// Per-thread state: the trace buffer (disabled = untraced) and counters.
struct PipelineContext {
  explicit PipelineContext(bool traced) : trace(traced) {}
  TraceBuffer trace;
  PipelineCounters counters;
  uint64_t next_request = 1;
  // Time spent in bench.verify, a correctness check the traced run's
  // throughput comparison leaves out.
  int64_t verify_ns = 0;
};

// What one request answered: the rows, or the decoded ROWS frame when the
// request went through the wire encoding.
struct PipelineAnswer {
  gsopt::Relation rows;
  std::optional<gsopt::server::WireResult> wire;
};

class Pipeline {
 public:
  struct Statement {
    gsopt::ParameterizedQuery pq;
    std::shared_ptr<const gsopt::CachedPlan> plan;
    uint64_t epoch = 0;
  };

  // `wire`: Execute also encodes and decodes the ROWS frame and runs under
  // a per-request ResourceBudget, as GsoptServer does. `refresh_on_execute`:
  // Execute first checks the catalog version, as a read that calls
  // Session::optimizer() before PreparedStatement::Execute does.
  Pipeline(const gsopt::Catalog& catalog, bool wire, bool refresh_on_execute);

  gsopt::StatusOr<Statement> Prepare(const std::string& sql,
                                     PipelineContext* ctx);
  gsopt::StatusOr<PipelineAnswer> Execute(Statement* stmt,
                                          std::vector<gsopt::Value> params,
                                          PipelineContext* ctx);
  gsopt::StatusOr<PipelineAnswer> Query(const std::string& sql,
                                        PipelineContext* ctx);

 private:
  struct Acquired {
    std::shared_ptr<const gsopt::CachedPlan> plan;
    uint64_t epoch = 0;
    bool hit = false;
    uint64_t fingerprint = 0;
    // The optimizer snapshot a miss was planned with (null on a hit).
    std::shared_ptr<const gsopt::QueryOptimizer> optimizer;
  };

  std::shared_ptr<const gsopt::QueryOptimizer> Refresh(uint64_t* epoch,
                                                       PipelineContext* ctx,
                                                       uint64_t request);
  gsopt::StatusOr<Acquired> Acquire(const gsopt::ParameterizedQuery& pq,
                                    PipelineContext* ctx, uint64_t request);
  gsopt::StatusOr<gsopt::PlanInfo> SplitOptimize(
      const gsopt::NodePtr& query, const gsopt::QueryOptimizer& optimizer,
      PipelineContext* ctx, uint64_t request);
  gsopt::StatusOr<std::vector<gsopt::PlanInfo>> SplitPlanSpace(
      const gsopt::NodePtr& query, const gsopt::QueryOptimizer& optimizer,
      PipelineContext* ctx, uint64_t request);
  // SubstituteParams -> Execute [-> EncodeRows -> DecodeRows].
  gsopt::StatusOr<PipelineAnswer> Run(const Acquired& acquired,
                                      const std::vector<gsopt::Value>& values,
                                      PipelineContext* ctx, uint64_t request,
                                      gsopt::NodePtr* executed);
  // The side measurements of a traced request, after its latency span.
  void Verify(const gsopt::NodePtr& tree, const Acquired& acquired,
              PipelineContext* ctx, uint64_t request);
  void Probe(const gsopt::NodePtr& executed, PipelineContext* ctx,
             uint64_t request);

  const gsopt::Catalog& catalog_;
  const bool wire_;
  const bool refresh_on_execute_;
  gsopt::PlanCache cache_;

  std::mutex mu_;  // guards optimizer_, seen_version_, epoch_
  std::shared_ptr<const gsopt::QueryOptimizer> optimizer_;
  uint64_t seen_version_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
