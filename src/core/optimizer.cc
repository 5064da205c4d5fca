#include "core/optimizer.h"

#include "hypergraph/querygraph.h"
#include "optimizer/order.h"

namespace gsopt {

std::string FallbackRungName(FallbackRung r) {
  switch (r) {
    case FallbackRung::kGeneralized:
      return "generalized";
    case FallbackRung::kBaseline:
      return "baseline";
    case FallbackRung::kBinaryOnly:
      return "binary-only";
    case FallbackRung::kSyntactic:
      return "syntactic";
  }
  return "?";
}

FallbackRung RungOf(EnumMode m) {
  switch (m) {
    case EnumMode::kGeneralized:
      return FallbackRung::kGeneralized;
    case EnumMode::kBaseline:
      return FallbackRung::kBaseline;
    case EnumMode::kBinaryOnly:
      return FallbackRung::kBinaryOnly;
  }
  return FallbackRung::kGeneralized;
}

std::string OptimizerCounters::ToString() const {
  std::string s = "subplans=" + std::to_string(subplans_enumerated) +
                  " dp_cells=" + std::to_string(dp_cells) +
                  " dp_pruned=" + std::to_string(dp_pruned) +
                  " plans_considered=" + std::to_string(plans_considered);
  if (sort_enforcers_placed + sort_enforcers_avoided > 0) {
    s += " sorts_placed=" + std::to_string(sort_enforcers_placed) +
         " sorts_avoided=" + std::to_string(sort_enforcers_avoided);
  }
  if (deadline_slack_us >= 0) {
    s += " deadline_slack_us=" + std::to_string(deadline_slack_us);
  }
  if (cache_hits + cache_misses > 0) {
    s += " cache_hits=" + std::to_string(cache_hits) +
         " cache_misses=" + std::to_string(cache_misses);
    if (cache_evictions > 0) {
      s += " cache_evictions=" + std::to_string(cache_evictions);
    }
    if (cache_invalidations > 0) {
      s += " cache_invalidations=" + std::to_string(cache_invalidations);
    }
  }
  return s;
}

std::string DegradationReport::ToString() const {
  if (!degraded() && attempts.empty()) return "none";
  std::string s = "requested=" + FallbackRungName(requested) +
                  " produced=" + FallbackRungName(rung);
  if (truncated) s += " (plan space truncated)";
  for (const std::string& a : attempts) s += "; abandoned " + a;
  return s;
}

StatusOr<PlanSpace> QueryOptimizer::EnumeratePlanSpace(
    const NodePtr& query, const OptimizeOptions& options) const {
  if (query == nullptr) return Status::InvalidArgument("null query");
  if (options.budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(options.budget->CheckDeadlineNow("optimize"));
  }
  // Reorder below a root ORDER BY or projection (the binder emits
  // Project(Sort(...))): the plan space is the child's, with the root
  // operator re-applied on every plan -- a sort as an enforcer over
  // whatever plan wins, a projection with its output names.
  if (query->kind() == OpKind::kSort || query->kind() == OpKind::kProject) {
    GSOPT_ASSIGN_OR_RETURN(PlanSpace inner,
                           EnumeratePlanSpace(query->left(), options));
    for (PlanInfo& p : inner.plans) {
      p.expr = Node::WithChildren(query, p.expr, nullptr);
      p.cost = cost_model_.Cost(p.expr);
    }
    return inner;
  }
  NodePtr simplified = SimplifyOuterJoins(query);
  GSOPT_ASSIGN_OR_RETURN(
      NormalizedQuery nq,
      NormalizeForReordering(simplified, catalog_, options.budget));

  PlanSpace space;
  std::vector<NodePtr> trees;
  auto qg = BuildQueryGraph(nq.join_tree, catalog_);
  if (qg.ok() && qg->hypergraph.NumRelations() >= 1) {
    EnumOptions eo;
    eo.mode = options.mode;
    eo.max_plans = options.max_plans;
    eo.budget = options.budget;
    if (options.prune) {
      eo.cost_fn = [this](const NodePtr& n) { return cost_model_.Cost(n); };
    }
    Enumerator en(qg->hypergraph, eo);
    en.SetLeafExprs(qg->leaf_exprs);
    auto enumerated = en.Enumerate();
    if (enumerated.ok()) {
      space.truncated = enumerated->truncated;
      space.counters.subplans_enumerated = enumerated->subplans_emitted;
      space.counters.dp_cells = enumerated->dp_cells;
      space.counters.dp_pruned = enumerated->dp_pruned;
      for (const PlanCandidate& c : enumerated->plans) {
        trees.push_back(c.expr);
      }
    } else if (enumerated.status().code() == StatusCode::kResourceExhausted) {
      // Budget expiry is the caller's signal to fall back to the
      // syntactic plan; swallowing it here would burn the remaining budget
      // on wrapper application for a single-tree plan space.
      return enumerated.status();
    }
    // Other enumerator failures (e.g. opaque-only queries) keep the
    // single-tree fallback below.
  }
  if (trees.empty()) {
    // Fallback: the normalized tree as-is (e.g. a single opaque unit).
    trees.push_back(nq.join_tree);
  }

  space.plans.reserve(trees.size() + 1);
  for (const NodePtr& t : trees) {
    GSOPT_ASSIGN_OR_RETURN(NodePtr full, ApplyWrappers(nq, t, catalog_));
    space.plans.push_back(PlanInfo{full, cost_model_.Cost(full)});
  }
  // No-regression guarantee: normalization (e.g. aggregation pull-up into
  // cartesian outer joins) can make EVERY reordered plan worse than the
  // as-written form; the original always stays a candidate.
  space.plans.push_back(PlanInfo{simplified, cost_model_.Cost(simplified)});
  space.counters.plans_considered = space.plans.size();
  return space;
}

StatusOr<OptimizeResult> QueryOptimizer::Optimize(
    const NodePtr& query, const OptimizeOptions& options) const {
  if (query == nullptr) return Status::InvalidArgument("null query");
  OptimizeResult result;
  result.original = query;
  result.simplified = SimplifyOuterJoins(query);
  result.original_cost = cost_model_.Cost(query);
  DegradationReport& deg = result.degradation;
  deg.requested = RungOf(options.mode);
  deg.rung = deg.requested;
  auto space = EnumeratePlanSpace(query, options);
  if (space.ok()) {
    deg.truncated = space->truncated;
    result.plans_considered = space->plans.size();
    result.counters.subplans_enumerated = space->counters.subplans_enumerated;
    result.counters.dp_cells = space->counters.dp_cells;
    result.counters.dp_pruned = space->counters.dp_pruned;
    result.best = space->plans[0];
    for (const PlanInfo& p : space->plans) {
      if (p.cost < result.best.cost) result.best = p;
    }
  } else if (options.fallback &&
             space.status().code() == StatusCode::kResourceExhausted) {
    // The deadline is absolute and sticky, so a smaller enumeration would
    // fail at its entry check: fall straight to the syntactic rung, the
    // simplified as-written expression, which needs no search.
    deg.attempts.push_back(FallbackRungName(deg.requested) + ": " +
                           space.status().ToString());
    deg.rung = FallbackRung::kSyntactic;
    result.best =
        PlanInfo{result.simplified, cost_model_.Cost(result.simplified)};
    result.plans_considered = 1;
  } else {
    return space.status();
  }
  // On the winning plan: the order-aware pass (redundant-enforcer
  // removal), then the counter fill. Deadline slack is whatever remains
  // when the plan is chosen.
  OrderPassCounters oc;
  NodePtr tuned = ApplyOrderAwarePass(result.best.expr, cost_model_.stats(),
                                      options.assume_ordered_exec, &oc);
  if (tuned != result.best.expr) {
    result.best.expr = tuned;
    result.best.cost = cost_model_.Cost(tuned);
  }
  result.counters.sort_enforcers_placed = oc.sort_enforcers_placed;
  result.counters.sort_enforcers_avoided = oc.sort_enforcers_avoided;
  result.counters.plans_considered = result.plans_considered;
  if (options.budget != nullptr && options.budget->has_deadline()) {
    result.counters.deadline_slack_us =
        options.budget->RemainingTime().count();
  }
  return result;
}

}  // namespace gsopt
