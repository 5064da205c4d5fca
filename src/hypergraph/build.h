// Builds the query hypergraph from a binary-operator expression tree
// (inner / left / right / full outer joins over base relations). The tree
// must be "simple" in the paper's sense (no redundant edges) and its
// predicates conjunctive and null in-tolerant; queries with selections,
// aggregations or GS must be normalized first (algebra/normalize.h).
// This is a strict-shape check -- join-like operators over leaves only,
// no always-true predicate -- in front of BuildQueryGraph's edge builder
// (hypergraph/querygraph.h), which it shares.
#ifndef GSOPT_HYPERGRAPH_BUILD_H_
#define GSOPT_HYPERGRAPH_BUILD_H_

#include "algebra/node.h"
#include "base/status.h"
#include "hypergraph/hypergraph.h"

namespace gsopt {

StatusOr<Hypergraph> BuildHypergraph(const NodePtr& query);

}  // namespace gsopt

#endif  // GSOPT_HYPERGRAPH_BUILD_H_
