// Order-aware physical pass: interesting orders over a chosen logical plan.
//
// Runs AFTER plan enumeration, on the winning expression. It never changes
// the logical shape of the tree -- only (a) stamps sort-merge execution
// hints onto inner joins (Node::WithMergeJoin) and (b) removes kSort
// enforcers whose requirement the subtree below provably already delivers.
// Claims flow bottom-up (a base table scanned in ascending order by a
// column, a merge inner join streaming non-decreasing by its join keys,
// order-preserving unary operators forwarding their child's claim);
// requirements flow top-down from kSort enforcers.
//
// Enforcer removal is sound only when the plan will actually execute in
// row order: serial interpretation (parallel morsel kernels do not
// preserve row order; the interpreter always honors merge hints). Callers
// gate this with OptimizeOptions::assume_ordered_exec, which only a
// parallel executor clears.
#ifndef GSOPT_OPTIMIZER_ORDER_H_
#define GSOPT_OPTIMIZER_ORDER_H_

#include "algebra/node.h"
#include "optimizer/stats.h"

namespace gsopt {

struct OrderPassCounters {
  size_t merge_joins_chosen = 0;      // inner joins stamped WithMergeJoin
  size_t sort_enforcers_placed = 0;   // kSort nodes kept in the plan
  size_t sort_enforcers_avoided = 0;  // kSort nodes removed as redundant
};

// True when `node`'s output is provably ordered by `req` under serial
// execution with merge hints honored. Empty `req` is trivially satisfied.
bool OutputSatisfiesOrder(const NodePtr& node, const exec::SortSpec& req,
                          const Statistics& stats);

// Applies the pass and returns the (possibly identical) rewritten tree.
// `assume_ordered_exec` gates enforcer removal; merge stamping on already
// sorted inputs happens either way (it is a pure execution-strategy hint).
NodePtr ApplyOrderAwarePass(const NodePtr& root, const Statistics& stats,
                            bool assume_ordered_exec,
                            OrderPassCounters* counters);

// Copy of `root` with the sort-merge hint stamped on every binary node:
// forced-merge execution, which the merge and order oracles run against
// the reference result. A stamped join without usable equi-keys still
// runs nested loops.
NodePtr StampMergeJoins(const NodePtr& root);

}  // namespace gsopt

#endif  // GSOPT_OPTIMIZER_ORDER_H_
