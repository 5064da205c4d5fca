#include "pipeline.h"

#include <cmath>
#include <utility>

#include "algebra/execute.h"
#include "algebra/normalize.h"
#include "algebra/simplify.h"
#include "base/budget.h"
#include "enumerate/enumerator.h"
#include "hypergraph/querygraph.h"
#include "optimizer/order.h"
#include "sql/binder.h"

namespace perfbench {

using gsopt::NodePtr;
using gsopt::OpKind;
using gsopt::PlanInfo;
using gsopt::Status;
using gsopt::StatusOr;

const std::vector<std::string>& OperatorNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (int k = 0; k <= static_cast<int>(OpKind::kSort); ++k) {
      names.push_back(gsopt::OpKindName(static_cast<OpKind>(k)));
    }
    return names;
  }();
  return kNames;
}

void PipelineCounters::Add(const PipelineCounters& o) {
  requests += o.requests;
  hits += o.hits;
  misses += o.misses;
  lookups += o.lookups;
  invalidations += o.invalidations;
  optimizations += o.optimizations;
  enumerations += o.enumerations;
  subplans += o.subplans;
  dp_cells += o.dp_cells;
  dp_pruned += o.dp_pruned;
  plans_considered += o.plans_considered;
  cost_mismatches += o.cost_mismatches;
  rebuilds += o.rebuilds;
  for (size_t i = 0; i < op_self_ns.size(); ++i) {
    op_self_ns[i] += o.op_self_ns[i];
  }
  rows_in += o.rows_in;
  result_rows += o.result_rows;
  probe_rows += o.probe_rows;
  bloom_checks += o.bloom_checks;
  bloom_rejects += o.bloom_rejects;
}

namespace {

// The Session's optimizer options: its defaults, with a serial executor
// and the automatic join strategy (so the order-aware pass may remove
// satisfied sort enforcers).
const gsopt::OptimizeOptions kOptions;

// Operator index from an OperatorStats label ("scan r1", "JOIN (merge)").
size_t OperatorIndex(const std::string& label) {
  if (label.rfind("scan ", 0) == 0) return static_cast<size_t>(OpKind::kLeaf);
  const std::string name = label.substr(0, label.find(' '));
  const std::vector<std::string>& names = OperatorNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();  // unknown: not tallied
}

void TallyStats(const gsopt::exec::OperatorStats& stats,
                PipelineCounters* c) {
  const size_t op = OperatorIndex(stats.op);
  if (op < c->op_self_ns.size()) c->op_self_ns[op] += stats.SelfWall().count();
  c->rows_in += stats.rows_in;
  c->probe_rows += stats.probe_rows;
  c->bloom_checks += stats.bloom_checks;
  c->bloom_rejects += stats.bloom_rejects;
  for (const auto& child : stats.children) TallyStats(*child, c);
}

void CollectLeaves(const NodePtr& node, std::vector<std::string>* out) {
  if (node == nullptr) return;
  if (node->kind() == OpKind::kLeaf) {
    out->push_back(node->table());
    return;
  }
  CollectLeaves(node->left(), out);
  CollectLeaves(node->right(), out);
}

}  // namespace

Pipeline::Pipeline(const gsopt::Catalog& catalog, bool wire,
                   bool refresh_on_execute)
    : catalog_(catalog), wire_(wire), refresh_on_execute_(refresh_on_execute) {}

std::shared_ptr<const gsopt::QueryOptimizer> Pipeline::Refresh(
    uint64_t* epoch, PipelineContext* ctx, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (optimizer_ == nullptr || seen_version_ != catalog_.version()) {
    // QueryOptimizer's constructor is Statistics::Collect over every table.
    Span span(&ctx->trace, "optimizer.stats_collect", request);
    seen_version_ = catalog_.version();
    optimizer_ = std::make_shared<const gsopt::QueryOptimizer>(catalog_);
    ++epoch_;
    ++ctx->counters.rebuilds;
  }
  *epoch = epoch_;
  return optimizer_;
}

StatusOr<std::vector<PlanInfo>> Pipeline::SplitPlanSpace(
    const NodePtr& query, const gsopt::QueryOptimizer& optimizer,
    PipelineContext* ctx, uint64_t request) {
  TraceBuffer* tb = &ctx->trace;
  const gsopt::CostModel& cost_model = optimizer.cost_model();
  auto cost = [&](const NodePtr& plan) {
    Span span(tb, "optimizer.cost", request);
    return cost_model.Cost(plan);
  };
  // Reorder below a root ORDER BY or projection, then re-apply it on every
  // plan (QueryOptimizer::EnumeratePlanSpace's recursion).
  if (query->kind() == OpKind::kSort || query->kind() == OpKind::kProject) {
    GSOPT_ASSIGN_OR_RETURN(
        std::vector<PlanInfo> inner,
        SplitPlanSpace(query->left(), optimizer, ctx, request));
    for (PlanInfo& p : inner) {
      if (query->kind() == OpKind::kSort) {
        p.expr = gsopt::Node::Sort(p.expr, query->sort_spec());
      } else if (query->projection_out() != query->projection()) {
        p.expr = gsopt::Node::ProjectAs(p.expr, query->projection(),
                                        query->projection_out());
      } else {
        p.expr = gsopt::Node::Project(p.expr, query->projection());
      }
      p.cost = cost(p.expr);
    }
    return inner;
  }

  const NodePtr simplified = [&] {
    Span span(tb, "algebra.simplify", request);
    return gsopt::SimplifyOuterJoins(query);
  }();
  auto normalized = [&] {
    Span span(tb, "algebra.normalize", request);
    return gsopt::NormalizeForReordering(simplified, catalog_, nullptr);
  }();
  GSOPT_RETURN_IF_ERROR(normalized.status());
  const gsopt::NormalizedQuery& nq = *normalized;
  auto graph = [&] {
    Span span(tb, "hypergraph.build", request);
    return gsopt::BuildQueryGraph(nq.join_tree, catalog_);
  }();

  std::vector<NodePtr> trees;
  if (graph.ok() && graph->hypergraph.NumRelations() >= 1) {
    gsopt::EnumOptions eo;
    eo.mode = kOptions.mode;
    eo.max_plans = kOptions.max_plans;
    eo.cost_fn = [&cost_model](const NodePtr& n) { return cost_model.Cost(n); };
    auto enumerated = [&] {
      Span span(tb, "enumerate.enumerate", request);
      gsopt::Enumerator enumerator(graph->hypergraph, eo);
      enumerator.SetLeafExprs(graph->leaf_exprs);
      return enumerator.Enumerate();
    }();
    ++ctx->counters.enumerations;
    if (enumerated.ok()) {
      ctx->counters.subplans += enumerated->subplans_emitted;
      ctx->counters.dp_cells += enumerated->dp_cells;
      ctx->counters.dp_pruned += enumerated->dp_pruned;
      for (const gsopt::PlanCandidate& c : enumerated->plans) {
        trees.push_back(c.expr);
      }
    } else if (enumerated.status().code() ==
               gsopt::StatusCode::kResourceExhausted) {
      return enumerated.status();
    }
  }
  if (trees.empty()) trees.push_back(nq.join_tree);

  std::vector<PlanInfo> plans;
  plans.reserve(trees.size() + 1);
  for (const NodePtr& t : trees) {
    auto full = [&] {
      Span span(tb, "algebra.wrappers", request);
      return gsopt::ApplyWrappers(nq, t, catalog_);
    }();
    GSOPT_RETURN_IF_ERROR(full.status());
    plans.push_back(PlanInfo{*full, cost(*full)});
  }
  // The as-written form always stays a candidate.
  plans.push_back(PlanInfo{simplified, cost(simplified)});
  return plans;
}

StatusOr<PlanInfo> Pipeline::SplitOptimize(
    const NodePtr& query, const gsopt::QueryOptimizer& optimizer,
    PipelineContext* ctx, uint64_t request) {
  GSOPT_ASSIGN_OR_RETURN(std::vector<PlanInfo> plans,
                         SplitPlanSpace(query, optimizer, ctx, request));
  ++ctx->counters.optimizations;
  ctx->counters.plans_considered += plans.size();
  const PlanInfo* best = &plans[0];
  for (const PlanInfo& p : plans) {
    if (p.cost < best->cost) best = &p;
  }
  PlanInfo out = *best;
  gsopt::OrderPassCounters oc;
  NodePtr tuned = [&] {
    Span span(&ctx->trace, "optimizer.order_pass", request);
    return gsopt::ApplyOrderAwarePass(out.expr, optimizer.cost_model().stats(),
                                      kOptions.assume_ordered_exec, &oc);
  }();
  if (tuned != out.expr) {
    Span span(&ctx->trace, "optimizer.cost", request);
    out.cost = optimizer.cost_model().Cost(tuned);
    out.expr = std::move(tuned);
  }
  return out;
}

StatusOr<Pipeline::Acquired> Pipeline::Acquire(
    const gsopt::ParameterizedQuery& pq, PipelineContext* ctx,
    uint64_t request) {
  Acquired out;
  std::shared_ptr<const gsopt::QueryOptimizer> optimizer =
      Refresh(&out.epoch, ctx, request);
  const std::string key = pq.canonical + "|perfbench";
  out.fingerprint = gsopt::Fnv1a64(key);
  bool invalidated = false;
  {
    Span span(&ctx->trace, "core.cache_lookup", request);
    out.plan = cache_.Lookup(out.fingerprint, key, out.epoch, &invalidated);
  }
  ++ctx->counters.lookups;
  if (invalidated) ++ctx->counters.invalidations;
  if (out.plan != nullptr) {
    out.hit = true;
    return out;
  }
  GSOPT_ASSIGN_OR_RETURN(PlanInfo best,
                         SplitOptimize(pq.tree, *optimizer, ctx, request));
  out.optimizer = std::move(optimizer);
  auto plan = std::make_shared<gsopt::CachedPlan>();
  plan->plan = best.expr;
  plan->cost = best.cost;
  plan->num_explicit = pq.num_explicit;
  plan->total_slots = pq.total_slots;
  plan->canonical = key;
  out.plan = std::move(plan);
  return out;
}

StatusOr<PipelineAnswer> Pipeline::Run(const Acquired& acquired,
                                       const std::vector<gsopt::Value>& values,
                                       PipelineContext* ctx, uint64_t request,
                                       NodePtr* executed) {
  TraceBuffer* tb = &ctx->trace;
  auto executable = [&] {
    Span span(tb, "core.substitute", request);
    return gsopt::SubstituteParams(acquired.plan->plan, values);
  }();
  GSOPT_RETURN_IF_ERROR(executable.status());
  *executed = *executable;

  gsopt::ResourceBudget budget;  // the server's per-request budget
  gsopt::exec::OperatorStats stats;
  gsopt::ExecuteOptions options;
  if (wire_) options.WithBudget(&budget);
  if (tb->enabled()) options.WithStats(&stats);
  auto rows = [&] {
    Span span(tb, "exec.execute", request);
    return gsopt::Execute(*executable, catalog_, options);
  }();
  GSOPT_RETURN_IF_ERROR(rows.status());
  if (tb->enabled()) {
    TallyStats(stats, &ctx->counters);
    ctx->counters.result_rows += static_cast<uint64_t>(rows->NumRows());
  }

  PipelineAnswer answer;
  if (wire_) {
    gsopt::server::WireResult disposition;
    disposition.cache_hit = acquired.hit;
    const std::string payload = [&] {
      Span span(tb, "server.encode_rows", request);
      return gsopt::server::EncodeRows(disposition, *rows);
    }();
    gsopt::server::WireResult decoded;
    Status s = [&] {
      Span span(tb, "server.decode_rows", request);
      return gsopt::server::DecodeRows(payload, &decoded);
    }();
    GSOPT_RETURN_IF_ERROR(s);
    answer.wire = std::move(decoded);
  } else {
    answer.rows = std::move(rows).value();
  }
  if (acquired.hit) {
    ++ctx->counters.hits;
  } else {
    ++ctx->counters.misses;
  }
  ++ctx->counters.requests;
  return answer;
}

void Pipeline::Verify(const NodePtr& tree, const Acquired& acquired,
                      PipelineContext* ctx, uint64_t request) {
  const double split_cost = acquired.plan->cost;
  const int64_t start_ns = NowNs();
  Span root(&ctx->trace, "bench.verify", request);
  auto result = [&] {
    Span span(&ctx->trace, "core.optimize", request);
    return acquired.optimizer->Optimize(tree, kOptions);
  }();
  const double tolerance = 1e-9 * std::max(1.0, std::abs(split_cost));
  if (!result.ok() || std::abs(result->best.cost - split_cost) > tolerance) {
    ++ctx->counters.cost_mismatches;
  }
  ctx->verify_ns += NowNs() - start_ns;
}

void Pipeline::Probe(const NodePtr& executed, PipelineContext* ctx,
                     uint64_t request) {
  std::vector<std::string> leaves;
  CollectLeaves(executed, &leaves);
  Span root(&ctx->trace, "bench.probe", request);
  for (const std::string& table : leaves) {
    Span span(&ctx->trace, "relational.catalog_get", request);
    (void)catalog_.Get(table);
  }
}

StatusOr<Pipeline::Statement> Pipeline::Prepare(const std::string& sql,
                                                PipelineContext* ctx) {
  const uint64_t request = ctx->next_request++;
  auto tree = gsopt::sql::ParseAndBind(sql, catalog_);
  GSOPT_RETURN_IF_ERROR(tree.status());
  Statement stmt;
  stmt.pq = gsopt::ParameterizeQuery(*tree);
  GSOPT_ASSIGN_OR_RETURN(Acquired acquired, Acquire(stmt.pq, ctx, request));
  if (!acquired.hit) {
    cache_.Insert(acquired.fingerprint, acquired.epoch, acquired.plan);
  }
  stmt.plan = acquired.plan;
  stmt.epoch = acquired.epoch;
  return stmt;
}

StatusOr<PipelineAnswer> Pipeline::Execute(Statement* stmt,
                                           std::vector<gsopt::Value> params,
                                           PipelineContext* ctx) {
  const uint64_t request = ctx->next_request++;
  const bool traced = ctx->trace.enabled();
  StatusOr<PipelineAnswer> answer = Status::Internal("not run");
  NodePtr executed;
  Acquired acquired;
  {
    Span root(&ctx->trace, "bench.request", request);
    uint64_t epoch = 0;
    if (refresh_on_execute_) {
      Refresh(&epoch, ctx, request);
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = epoch_;
    }
    if (stmt->epoch != epoch) {
      auto reacquired = Acquire(stmt->pq, ctx, request);
      GSOPT_RETURN_IF_ERROR(reacquired.status());
      acquired = std::move(reacquired).value();
      stmt->plan = acquired.plan;
      stmt->epoch = acquired.epoch;
    } else {
      acquired.plan = stmt->plan;
      acquired.epoch = stmt->epoch;
      acquired.hit = true;
    }
    std::vector<gsopt::Value> values = std::move(params);
    values.insert(values.end(), stmt->pq.lifted.begin(),
                  stmt->pq.lifted.end());
    answer = Run(acquired, values, ctx, request, &executed);
    if (answer.ok() && !acquired.hit) {
      Span span(&ctx->trace, "core.cache_insert", request);
      cache_.Insert(acquired.fingerprint, acquired.epoch, acquired.plan);
    }
  }
  if (traced && answer.ok()) {
    if (!acquired.hit) Verify(stmt->pq.tree, acquired, ctx, request);
    Probe(executed, ctx, request);
  }
  return answer;
}

StatusOr<PipelineAnswer> Pipeline::Query(const std::string& sql,
                                         PipelineContext* ctx) {
  const uint64_t request = ctx->next_request++;
  const bool traced = ctx->trace.enabled();
  StatusOr<PipelineAnswer> answer = Status::Internal("not run");
  NodePtr executed;
  gsopt::ParameterizedQuery pq;
  Acquired acquired;
  {
    Span root(&ctx->trace, "bench.request", request);
    auto tree = [&] {
      Span span(&ctx->trace, "sql.parse_bind", request);
      return gsopt::sql::ParseAndBind(sql, catalog_);
    }();
    GSOPT_RETURN_IF_ERROR(tree.status());
    {
      Span span(&ctx->trace, "core.parameterize", request);
      pq = gsopt::ParameterizeQuery(*tree);
    }
    GSOPT_ASSIGN_OR_RETURN(acquired, Acquire(pq, ctx, request));
    answer = Run(acquired, pq.lifted, ctx, request, &executed);
    if (answer.ok() && !acquired.hit) {
      Span span(&ctx->trace, "core.cache_insert", request);
      cache_.Insert(acquired.fingerprint, acquired.epoch, acquired.plan);
    }
  }
  if (traced && answer.ok()) {
    if (!acquired.hit) Verify(pq.tree, acquired, ctx, request);
    Probe(executed, ctx, request);
  }
  return answer;
}

}  // namespace perfbench
