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
  return OpKindName(n.kind());
}

// A node's result: rows the node owns, or a relation it reads in place --
// a catalog table, or a borrowed input an identity projection passed up.
// A borrowed relation outlives the whole execution: the catalog is not
// written while a query runs (relational/catalog.h).
struct NodeResult {
  Relation owned;
  const Relation* borrowed = nullptr;

  const Relation& rel() const {
    return borrowed != nullptr ? *borrowed : owned;
  }
};

StatusOr<NodeResult> ExecuteNode(const NodePtr& node, const Catalog& catalog,
                                 const ExecuteOptions& options,
                                 exec::OperatorStats* stats);

// Executes one child under its own stats node (appended in child order, so
// the stats tree mirrors the plan tree shape exactly).
StatusOr<NodeResult> ExecuteChild(const NodePtr& child, const Catalog& catalog,
                                  const ExecuteOptions& options,
                                  exec::OperatorStats* stats) {
  exec::OperatorStats* cs =
      stats == nullptr ? nullptr : stats->AddChild(std::string());
  return ExecuteNode(child, catalog, options, cs);
}

// Runs the kernel of every operator but a scan or a projection.
StatusOr<Relation> RunKernel(const NodePtr& node, const Catalog& catalog,
                             const ExecuteOptions& options,
                             const exec::ExecContext& ctx,
                             exec::OperatorStats* stats) {
  switch (node->kind()) {
    case OpKind::kSelect: {
      GSOPT_ASSIGN_OR_RETURN(
          NodeResult child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Select(child.rel(), node->pred(), ctx);
    }
    case OpKind::kGeneralizedSelection: {
      GSOPT_ASSIGN_OR_RETURN(
          NodeResult child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::GeneralizedSelection(child.rel(), node->pred(),
                                        node->groups(), ctx);
    }
    case OpKind::kGroupBy: {
      GSOPT_ASSIGN_OR_RETURN(
          NodeResult child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::GeneralizedProjection(child.rel(), node->groupby(), ctx);
    }
    case OpKind::kSort: {
      GSOPT_ASSIGN_OR_RETURN(
          NodeResult child, ExecuteChild(node->left(), catalog, options, stats));
      return exec::Sort(child.rel(), node->sort_spec(), ctx);
    }
    default:
      break;
  }
  GSOPT_ASSIGN_OR_RETURN(NodeResult lres,
                         ExecuteChild(node->left(), catalog, options, stats));
  GSOPT_ASSIGN_OR_RETURN(NodeResult rres,
                         ExecuteChild(node->right(), catalog, options, stats));
  const Relation& l = lres.rel();
  const Relation& r = rres.rel();
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

StatusOr<NodeResult> Dispatch(const NodePtr& node, const Catalog& catalog,
                              const ExecuteOptions& options,
                              const exec::ExecContext& ctx,
                              exec::OperatorStats* stats) {
  if (node->kind() == OpKind::kLeaf) {
    GSOPT_ASSIGN_OR_RETURN(const Relation* table,
                           catalog.Table(node->table()));
    return NodeResult{Relation(), table};
  }
  if (node->kind() != OpKind::kProject) {
    GSOPT_ASSIGN_OR_RETURN(Relation rows,
                           RunKernel(node, catalog, options, ctx, stats));
    return NodeResult{std::move(rows)};
  }
  GSOPT_ASSIGN_OR_RETURN(NodeResult child,
                         ExecuteChild(node->left(), catalog, options, stats));
  // An identity projection hands its input up as it is (owned rows move,
  // borrowed ones stay borrowed), with the kernel's stats and row charge.
  // The reference evaluator still copies through the kernel, so the
  // oracles compare against an independent evaluation.
  if (!ctx.Reference() &&
      exec::IsIdentityProjection(child.rel(), node->projection(),
                                 node->projection_out())) {
    const auto n = static_cast<uint64_t>(child.rel().NumRows());
    if (stats != nullptr) {
      stats->rows_in += n;
      stats->rows_out += n;
    }
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(n, "project"));
    return child;
  }
  GSOPT_ASSIGN_OR_RETURN(Relation rows,
                         exec::Project(child.rel(), node->projection(),
                                       node->projection_out(), ctx));
  return NodeResult{std::move(rows)};
}

StatusOr<NodeResult> ExecuteNode(const NodePtr& node, const Catalog& catalog,
                                 const ExecuteOptions& options,
                                 exec::OperatorStats* stats) {
  if (node == nullptr) return Status::InvalidArgument("null plan node");
  if (options.budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(options.budget->CheckDeadlineNow("execute"));
  }
  exec::ExecContext ctx{options.budget, stats,         options.fault,
                        options.spill,  options.batch, options.bloom};
  Clock::time_point start;
  if (stats != nullptr) {
    stats->op = StatsLabel(*node);
    start = Clock::now();
  }
  StatusOr<NodeResult> result = Dispatch(node, catalog, options, ctx, stats);
  if (stats != nullptr && result.ok()) {
    stats->wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
    if (node->kind() == OpKind::kLeaf) {
      // Scans have no kernel to count for them.
      stats->rows_out = static_cast<uint64_t>(result->rel().NumRows());
    }
  }
  return result;
}

}  // namespace

StatusOr<Relation> Execute(const NodePtr& node, const Catalog& catalog,
                           const ExecuteOptions& options) {
  GSOPT_ASSIGN_OR_RETURN(NodeResult result,
                         ExecuteNode(node, catalog, options, options.stats));
  // The caller owns what it gets back: a borrowed root (SELECT * FROM r1)
  // is copied once.
  if (result.borrowed != nullptr) return *result.borrowed;
  return std::move(result.owned);
}

StatusOr<bool> ExecutionEquivalent(const NodePtr& a, const NodePtr& b,
                                   const Catalog& catalog,
                                   const ExecuteOptions& options) {
  GSOPT_ASSIGN_OR_RETURN(Relation ra, Execute(a, catalog, options));
  GSOPT_ASSIGN_OR_RETURN(Relation rb, Execute(b, catalog, options));
  return Relation::BagEquals(ra, rb);
}

}  // namespace gsopt
