// Public facade: end-to-end query optimization.
//
//   QueryOptimizer opt(catalog);
//   auto result = opt.Optimize(query);
//   Relation answer = *Execute(result->best.expr, catalog);
//
// Pipeline (paper §4): simplify outer joins ([BHAR95c] precondition) ->
// normalize (pull aggregations to the root, defer aggregate-referencing
// conjuncts into generalized selections) -> build the query hypergraph ->
// enumerate association trees / assign operators (Definition 3.2 + GS +
// MGOJ, or the restricted baseline modes) -> cost and pick the best plan ->
// re-apply the wrapper stack above it.
//
// Resource governance: OptimizeOptions may carry a ResourceBudget (deadline
// / plan cap). The plan cap truncates the search; an expired deadline
// stops it. The deadline is absolute and sticky, so a cheaper enumeration
// mode retried after it would fail at its entry check: the facade instead
// falls straight from the requested rung to the syntactic one, which never
// enumerates -- it costs the simplified as-written expression and returns
// it -- so a plan always comes back. OptimizeResult's DegradationReport
// records the requested rung, the rung that produced the plan, whether the
// plan cap truncated the space, and the error of the abandoned rung.
#ifndef GSOPT_CORE_OPTIMIZER_H_
#define GSOPT_CORE_OPTIMIZER_H_

#include <string>
#include <vector>

#include "algebra/execute.h"
#include "algebra/node.h"
#include "algebra/normalize.h"
#include "algebra/simplify.h"
#include "base/budget.h"
#include "base/status.h"
#include "enumerate/enumerator.h"
#include "optimizer/cost_model.h"
#include "relational/catalog.h"

namespace gsopt {

// Plan-space rungs, strongest (largest plan space) first: the three
// enumeration modes a caller may request, and the syntactic fallback.
// kSyntactic is not an enumeration mode: it returns the simplified
// as-written expression without searching, so it always succeeds.
enum class FallbackRung { kGeneralized = 0, kBaseline, kBinaryOnly,
                          kSyntactic };

std::string FallbackRungName(FallbackRung r);

// The rung of a caller-requested enumeration mode.
FallbackRung RungOf(EnumMode m);

struct OptimizeOptions {
  EnumMode mode = EnumMode::kGeneralized;
  // Selinger-style DP pruning (cheapest subplan per compensation state).
  // Disable to enumerate the complete plan space.
  bool prune = true;
  size_t max_plans = 2000000;
  // Optional cooperative resource budget (not owned). Checked in the
  // normalizer, the enumerator's DP loop, and (when passed on to Execute)
  // the row-producing operators.
  ResourceBudget* budget = nullptr;
  // When the budget is exhausted mid-search, return the syntactic plan
  // instead of failing. Disable to surface Status(kResourceExhausted).
  bool fallback = true;
  // Lets the order-aware pass remove kSort enforcers whose order the
  // subtree already delivers (optimizer/order.h). Every operator that pass
  // forwards order through keeps its input's row order; false keeps every
  // enforcer.
  bool assume_ordered_exec = true;

  // Fluent builder (the serving API spells options this way; see
  // core/session.h). Aggregate initialization keeps working for old code.
  OptimizeOptions& WithPrune(bool b) { prune = b; return *this; }
  OptimizeOptions& WithMaxPlans(size_t n) { max_plans = n; return *this; }
  OptimizeOptions& WithBudget(ResourceBudget* b) { budget = b; return *this; }
};

struct PlanInfo {
  NodePtr expr;
  double cost = 0.0;
};

// Work counters from the search that produced a plan: how much of the
// space was explored, how much DP pruning and the plan cap cut, and how
// close the deadline came. Zero search work when the syntactic fallback
// produced the plan.
struct OptimizerCounters {
  size_t subplans_enumerated = 0;  // DP subplans emitted
  size_t dp_cells = 0;             // DP table cells stored
  size_t dp_pruned = 0;            // subplans discarded by cost pruning
  size_t plans_considered = 0;     // complete candidate plans costed
  // Order-aware pass (optimizer/order.h) on the winning plan: ORDER BY
  // enforcers kept vs removed because the input already arrives ordered.
  size_t sort_enforcers_placed = 0;
  size_t sort_enforcers_avoided = 0;
  // Slack left on the budget's deadline when optimization returned;
  // negative when no deadline was set.
  int64_t deadline_slack_us = -1;
  // Plan-cache traffic attributable to this result (filled by the Session
  // serving layer; always zero for direct QueryOptimizer::Optimize calls).
  // A hit means the search counters above describe the cached entry's
  // original optimization, not work done on this call.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t cache_evictions = 0;
  size_t cache_invalidations = 0;

  std::string ToString() const;
};

// How (and whether) resource pressure degraded an optimization.
struct DegradationReport {
  FallbackRung requested = FallbackRung::kGeneralized;
  FallbackRung rung = FallbackRung::kGeneralized;  // produced the plan
  // The plan cap stopped the winning rung's enumeration early; the plan is
  // valid but possibly suboptimal.
  bool truncated = false;
  // The abandoned requested rung, if any: "<rung>: <status>".
  std::vector<std::string> attempts;

  bool degraded() const { return truncated || rung != requested; }
  std::string ToString() const;
};

struct OptimizeResult {
  NodePtr original;
  NodePtr simplified;
  PlanInfo best;
  double original_cost = 0.0;
  size_t plans_considered = 0;
  DegradationReport degradation;
  OptimizerCounters counters;
};

// A costed plan space plus whether enumeration was truncated by a cap.
struct PlanSpace {
  std::vector<PlanInfo> plans;
  bool truncated = false;
  OptimizerCounters counters;
};

class QueryOptimizer {
 public:
  explicit QueryOptimizer(const Catalog& catalog)
      : catalog_(catalog), cost_model_(Statistics::Collect(catalog)) {}

  StatusOr<OptimizeResult> Optimize(const NodePtr& query,
                                    const OptimizeOptions& options = {}) const;

  // Every valid complete plan (wrappers applied), costed, plus the
  // truncation flag. With options.prune the list is the DP frontier, not
  // the full space. Runs a single rung (options.mode) -- no fallback.
  StatusOr<PlanSpace> EnumeratePlanSpace(
      const NodePtr& query, const OptimizeOptions& options = {}) const;

  const CostModel& cost_model() const { return cost_model_; }
  const Catalog& catalog() const { return catalog_; }

 private:
  const Catalog& catalog_;
  CostModel cost_model_;
};

}  // namespace gsopt

#endif  // GSOPT_CORE_OPTIMIZER_H_
