// Normalization for reordering (paper §4 step (a)):
//   * aggregations (generalized projections) are pulled up to the root so
//     the binary operators underneath become adjacent and reorderable
//     (Example 3.1 / Query 1 / Example 1.1);
//   * predicates that reference aggregation outputs are split off the
//     binary operators and deferred into generalized selections above the
//     pulled-up aggregation;
//   * plain selections are pushed first: each conjunct sinks into an
//     inner join's child (or, spanning both, into its predicate) and into
//     an outer join's preserved child, as deep as those rules reach;
//   * the conjuncts that cannot move, and previously created generalized
//     selections, are hoisted with operator-specific preserved-group
//     adjustments.
//
// The result is a pure join/outer-join tree (reorderable by the
// enumerator) plus an ordered stack of unary "wrappers" to re-apply above
// whichever reordering the optimizer picks. Subexpressions that cannot be
// normalized soundly are left intact and treated as opaque units by the
// query-graph builder -- exactly how a production optimizer handles a
// non-mergeable view.
#ifndef GSOPT_ALGEBRA_NORMALIZE_H_
#define GSOPT_ALGEBRA_NORMALIZE_H_

#include <string>
#include <vector>

#include "algebra/node.h"
#include "base/budget.h"
#include "base/status.h"
#include "relational/catalog.h"

namespace gsopt {

struct Wrapper {
  enum class Kind { kGeneralizedSelection, kGroupBy } kind =
      Kind::kGeneralizedSelection;
  // kGeneralizedSelection (a plain selection is the zero-group case):
  Predicate pred;
  std::vector<exec::PreservedGroup> groups;
  // kGroupBy:
  exec::GroupBySpec spec;

  std::string ToString() const;
};

struct NormalizedQuery {
  // Pure binary join/outer-join tree (leaves: base relations, filtered
  // base relations, or opaque subexpressions).
  NodePtr join_tree;
  // Unary operators to re-apply above the (re-ordered) tree, innermost
  // first.
  std::vector<Wrapper> wrappers;
  // Auxiliary columns introduced by null-side aggregation pull-up; the
  // caller projects them away after applying the wrappers.
  std::vector<Attribute> drop_cols;
};

// Normalizes `query`. Always succeeds structurally: parts that cannot be
// normalized remain embedded in join_tree as opaque subexpressions. An
// optional budget (not owned) is probed per visited node; an expired
// deadline returns Status(kResourceExhausted).
StatusOr<NormalizedQuery> NormalizeForReordering(
    const NodePtr& query, const Catalog& catalog,
    ResourceBudget* budget = nullptr);

// Re-applies the wrappers (and drops auxiliary columns) above `tree`.
StatusOr<NodePtr> ApplyWrappers(const NormalizedQuery& nq, NodePtr tree,
                                const Catalog& catalog);

}  // namespace gsopt

#endif  // GSOPT_ALGEBRA_NORMALIZE_H_
