#include "hypergraph/build.h"

#include <utility>

#include "hypergraph/querygraph.h"

namespace gsopt {

namespace {

// The strict shape BuildHypergraph accepts: join-like operators over base
// relations, each with a predicate that is not always true.
Status CheckPureJoinTree(const NodePtr& node) {
  if (node->kind() == OpKind::kLeaf) return Status::OK();
  if (!IsJoinLike(node->kind())) {
    return Status::InvalidArgument(
        "hypergraph construction expects a pure join/outer-join tree, got " +
        OpKindName(node->kind()));
  }
  if (node->pred().IsTrue()) {
    return Status::InvalidArgument(
        "join predicate must reference both operand sides: " +
        node->pred().ToString());
  }
  GSOPT_RETURN_IF_ERROR(CheckPureJoinTree(node->left()));
  return CheckPureJoinTree(node->right());
}

}  // namespace

StatusOr<Hypergraph> BuildHypergraph(const NodePtr& query) {
  if (query == nullptr) return Status::InvalidArgument("null query");
  GSOPT_RETURN_IF_ERROR(CheckPureJoinTree(query));
  // Every leaf is a base relation, so the builder never asks the catalog
  // for a unit's schema.
  Catalog no_tables;
  GSOPT_ASSIGN_OR_RETURN(QueryGraph qg, BuildQueryGraph(query, no_tables));
  return std::move(qg.hypergraph);
}

}  // namespace gsopt
