#include "algebra/execute.h"

#include <chrono>

#include "exec/aggregate.h"
#include "exec/eval.h"
#include "exec/sort.h"

namespace gsopt {

namespace {

using Clock = std::chrono::steady_clock;

std::string StatsLabel(const Node& n) {
  if (n.kind() == OpKind::kLeaf) return "scan " + n.table();
  // Surface the physical choice in EXPLAIN ANALYZE: a join the order-aware
  // optimizer hinted to sort-merge reads e.g. "JOIN (merge)".
  if (n.merge_join() && IsBinary(n.kind())) {
    return OpKindName(n.kind()) + " (merge)";
  }
  return OpKindName(n.kind());
}

StatusOr<Relation> ExecuteNode(const NodePtr& node, const Catalog& catalog,
                               const ExecuteOptions& options,
                               exec::OperatorStats* stats);

// Executes one child under its own stats node (appended in child order, so
// the stats tree mirrors the plan tree shape exactly).
StatusOr<Relation> ExecuteChild(const NodePtr& child, const Catalog& catalog,
                                const ExecuteOptions& options,
                                exec::OperatorStats* stats) {
  exec::OperatorStats* cs =
      stats == nullptr ? nullptr : stats->AddChild(std::string());
  return ExecuteNode(child, catalog, options, cs);
}

StatusOr<Relation> Dispatch(const NodePtr& node, const Catalog& catalog,
                            const ExecuteOptions& options,
                            const exec::ExecContext& ctx,
                            exec::OperatorStats* stats) {
  switch (node->kind()) {
    case OpKind::kLeaf:
      return catalog.Get(node->table());
    case OpKind::kSelect: {
      GSOPT_ASSIGN_OR_RETURN(
          Relation child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Select(child, node->pred(), ctx);
    }
    case OpKind::kProject: {
      GSOPT_ASSIGN_OR_RETURN(
          Relation child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Project(child, node->projection(), node->projection_out(),
                           ctx);
    }
    case OpKind::kGeneralizedSelection: {
      GSOPT_ASSIGN_OR_RETURN(
          Relation child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::GeneralizedSelection(child, node->pred(), node->groups(),
                                        ctx);
    }
    case OpKind::kGroupBy: {
      GSOPT_ASSIGN_OR_RETURN(
          Relation child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::GeneralizedProjection(child, node->groupby(), ctx);
    }
    case OpKind::kSort: {
      GSOPT_ASSIGN_OR_RETURN(
          Relation child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Sort(child, node->sort_spec(), ctx);
    }
    default:
      break;
  }
  GSOPT_ASSIGN_OR_RETURN(Relation l,
                         ExecuteChild(node->left(), catalog, options, stats));
  GSOPT_ASSIGN_OR_RETURN(Relation r,
                         ExecuteChild(node->right(), catalog, options, stats));
  switch (node->kind()) {
    case OpKind::kInnerJoin:
      return exec::InnerJoin(l, r, node->pred(), ctx);
    case OpKind::kLeftOuterJoin:
      return exec::LeftOuterJoin(l, r, node->pred(), ctx);
    case OpKind::kRightOuterJoin:
      return exec::RightOuterJoin(l, r, node->pred(), ctx);
    case OpKind::kFullOuterJoin:
      return exec::FullOuterJoin(l, r, node->pred(), ctx);
    case OpKind::kAntiJoin:
      return exec::AntiJoin(l, r, node->pred(), ctx);
    case OpKind::kSemiJoin:
      return exec::SemiJoin(l, r, node->pred(), ctx);
    case OpKind::kMgoj:
      return exec::Mgoj(l, r, node->pred(), node->groups(), ctx);
    default:
      return Status::Internal("unhandled operator " +
                              OpKindName(node->kind()));
  }
}

StatusOr<Relation> ExecuteNode(const NodePtr& node, const Catalog& catalog,
                               const ExecuteOptions& options,
                               exec::OperatorStats* stats) {
  if (node == nullptr) return Status::InvalidArgument("null plan node");
  if (options.budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(options.budget->CheckDeadlineNow("execute"));
  }
  exec::ExecContext ctx{options.budget, stats,         options.executor,
                        options.fault,  options.spill, options.batch,
                        options.bloom,  node->merge_join()};
  Clock::time_point start;
  if (stats != nullptr) {
    stats->op = StatsLabel(*node);
    start = Clock::now();
  }
  StatusOr<Relation> result = Dispatch(node, catalog, options, ctx, stats);
  if (stats != nullptr && result.ok()) {
    stats->wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
    if (node->kind() == OpKind::kLeaf) {
      // Scans have no kernel to count for them.
      stats->rows_out = static_cast<uint64_t>(result->NumRows());
    }
  }
  return result;
}

}  // namespace

StatusOr<Relation> Execute(const NodePtr& node, const Catalog& catalog,
                           const ExecuteOptions& options) {
  return ExecuteNode(node, catalog, options, options.stats);
}

StatusOr<bool> ExecutionEquivalent(const NodePtr& a, const NodePtr& b,
                                   const Catalog& catalog,
                                   const ExecuteOptions& options) {
  GSOPT_ASSIGN_OR_RETURN(Relation ra, Execute(a, catalog, options));
  GSOPT_ASSIGN_OR_RETURN(Relation rb, Execute(b, catalog, options));
  return Relation::BagEquals(ra, rb);
}

}  // namespace gsopt
