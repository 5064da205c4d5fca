// Order-aware pass over a chosen logical plan.
//
// Runs AFTER plan enumeration, on the winning expression. It never changes
// the logical shape of the tree: it only removes kSort enforcers whose
// requirement the subtree below provably already delivers. Claims flow
// bottom-up (a base table stored in ascending order by a column, a sort,
// and selections and plain projections forwarding their child's claim),
// and each kSort enforcer is checked against its input's claim.
//
// Enforcer removal is sound because scans, selections (exec/eval.h
// Select), plain projections and sorts all keep their input's row order.
// OptimizeOptions::assume_ordered_exec = false keeps every enforcer.
#ifndef GSOPT_OPTIMIZER_ORDER_H_
#define GSOPT_OPTIMIZER_ORDER_H_

#include "algebra/node.h"
#include "optimizer/stats.h"

namespace gsopt {

struct OrderPassCounters {
  size_t sort_enforcers_placed = 0;   // kSort nodes kept in the plan
  size_t sort_enforcers_avoided = 0;  // kSort nodes removed as redundant
};

// True when `node`'s output is provably ordered by `req`. Empty `req` is
// trivially satisfied.
bool OutputSatisfiesOrder(const NodePtr& node, const exec::SortSpec& req,
                          const Statistics& stats);

// Applies the pass and returns the (possibly identical) rewritten tree.
// `assume_ordered_exec` gates enforcer removal.
NodePtr ApplyOrderAwarePass(const NodePtr& root, const Statistics& stats,
                            bool assume_ordered_exec,
                            OrderPassCounters* counters);

}  // namespace gsopt

#endif  // GSOPT_OPTIMIZER_ORDER_H_
