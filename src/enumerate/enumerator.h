// Association-tree enumeration and operator assignment (paper §3-§4).
//
// The enumerator runs bottom-up dynamic programming over connected relation
// subsets of the query hypergraph, in one of three modes:
//
//  * kBinaryOnly  -- Definition 2.3 association trees ([BHAR95a]'s stricter
//    rule: a hyperedge may only combine subtrees that fully contain its
//    hypernodes) and plans restricted to the binary operators
//    {join, LOJ, ROJ, FOJ}. This models the [GALI92a/ROSE90] class.
//  * kBaseline    -- Definition 2.3 trees, but MGOJ is available for
//    combinations whose inner-join semantics would violate an outer join
//    applied below. This models the [BHAR95a] class.
//  * kGeneralized -- the paper's contribution: Definition 3.2 association
//    trees (hyperedges may be broken into atom sub-edges), MGOJ, and
//    deferred conjuncts compensated by a generalized selection at the root
//    whose preserved groups come from Theorem 1 (computed once from the
//    original hypergraph).
//
// Every combination's operator is chosen so the expression preserves what
// the original operators promised to preserve:
//  * inner joins over inputs that contain an already-applied (bi)directed
//    edge h whose padded tuples the new predicate touches become MGOJ with
//    preserved group pres(h) intersected with the side h lives in;
//  * atoms of a (bi)directed edge are applied together at one node (the
//    edge's operator placement); remaining atoms are deferred to the root.
#ifndef GSOPT_ENUMERATE_ENUMERATOR_H_
#define GSOPT_ENUMERATE_ENUMERATOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algebra/node.h"
#include "base/budget.h"
#include "base/status.h"
#include "hypergraph/analysis.h"
#include "hypergraph/hypergraph.h"

namespace gsopt {

enum class EnumMode { kBinaryOnly, kBaseline, kGeneralized };

std::string EnumModeName(EnumMode m);

struct EnumOptions {
  EnumMode mode = EnumMode::kGeneralized;
  // In kGeneralized mode, also enumerate plans that voluntarily defer
  // applicable atoms of a complex edge (keeping a strict subset at the
  // operator); otherwise a placement applies every applicable atom.
  bool enumerate_partial_keeps = true;
  // Soft cap on total emitted subplans. Hitting it does NOT fail the
  // enumeration: exploration of alternatives stops (one plan per remaining
  // DP cell keeps the search connected) and the result carries
  // truncated=true so callers can report a possibly-suboptimal plan.
  size_t max_plans = 2000000;
  // Optional cooperative budget (not owned). The DP loop probes the
  // deadline at combination granularity and returns
  // Status(kResourceExhausted) when it expires; the budget's plan
  // allowance tightens max_plans.
  ResourceBudget* budget = nullptr;
  // Dynamic-programming pruning: when set, each DP cell keeps only the
  // cheapest subplan per (applied atoms, placed edges) state -- states
  // differ in which compensations remain, so they are not interchangeable
  // and are pruned independently (the classic Selinger argument extended
  // to deferred predicates). Called once per distinct subplan a DP cell
  // keeps.
  std::function<double(const NodePtr&)> cost_fn;
};

struct PlanCandidate {
  NodePtr expr;            // complete plan incl. root GS compensation
  int num_mgoj = 0;        // MGOJ operators used
  int num_deferred = 0;    // atoms compensated at the root
};

struct EnumerationResult {
  std::vector<PlanCandidate> plans;
  // The plan cap stopped exploration before the space was exhausted: the
  // plans are all valid, but a cheaper one may exist.
  bool truncated = false;
  // Total DP subplans emitted (a work metric, not |plans|).
  size_t subplans_emitted = 0;
  // DP table cells stored (connected subsets with >= 1 surviving subplan,
  // singletons included).
  size_t dp_cells = 0;
  // Subplans discarded by DP cost pruning (cheapest-per-state).
  size_t dp_pruned = 0;
};

class Enumerator {
 public:
  Enumerator(const Hypergraph& h, EnumOptions options);

  // Overrides the expression used for a hypergraph leaf (default: a base
  // relation scan). Used for filtered relations and opaque units.
  void SetLeafExprs(std::map<std::string, NodePtr> leaf_exprs) {
    leaf_exprs_ = std::move(leaf_exprs);
  }

  // All valid plans for the full relation set (deduplicated by structure),
  // plus whether the plan cap truncated the space. On deadline expiry
  // returns Status(kResourceExhausted) -- a partial DP table has no plan
  // covering every relation, so there is nothing valid to salvage.
  StatusOr<EnumerationResult> Enumerate();

  // Number of distinct association trees (bracketings, ignoring operator
  // choices) valid in this mode.
  StatusOr<long long> CountAssociationTrees();

 private:
  struct AtomInfo {
    int edge_id;
    int index_in_edge;
    RelSet span;
    uint64_t text_hash;  // hash of the atom's printed text
  };

  // One partial plan for a relation subset.
  //
  // A DP cell keeps each distinct plan once. Distinct means distinct
  // expr->ToString(), but the key is `hash`, a shape hash that mirrors
  // ToString's structure: built bottom-up from the operator kind, the
  // canonical left and right child hashes, the printed text of each applied
  // atom (hashed once per Enumerator, so a repeated `p AND p` atom hashes
  // alike) and the MGOJ group bits. Plans are printed only when their
  // hashes collide. With a cost_fn, each kept plan is costed once into
  // `cost`, and pruning compares the stored costs.
  struct SubPlan {
    NodePtr expr;
    RelSet applied_atoms;   // global atom ids applied inside expr
    RelSet placed_edges;    // (bi)directed edges whose operator is inside
    int num_mgoj = 0;
    uint64_t hash = 0;
    double cost = 0.0;
  };

  bool SubsetConnected(RelSet rels) const;

  // Combines two subplans over disjoint relation sets; appends resulting
  // plans to `out`. May emit several plans (partial-keep choices).
  void Combine(RelSet s1, const SubPlan& p1, RelSet s2, const SubPlan& p2,
               std::vector<SubPlan>* out) const;

  // Emits the plan for one concrete choice of applied atoms.
  void EmitCombination(RelSet s1, const SubPlan& p1, RelSet s2,
                       const SubPlan& p2, RelSet apply_atoms,
                       std::vector<SubPlan>* out) const;

  // Wraps root-level generalized selections for deferred atoms; `*hash`
  // becomes the wrapped plan's shape hash.
  StatusOr<PlanCandidate> Finalize(const SubPlan& plan, uint64_t* hash) const;

  NodePtr LeafExpr(int rel_id) const;

  const Hypergraph& h_;
  HypergraphAnalysis analysis_;
  EnumOptions options_;
  // Construction problems (e.g. more predicate atoms than RelSet can
  // index) are deferred and reported from Enumerate(), not aborted on.
  Status init_status_;
  std::map<std::string, NodePtr> leaf_exprs_;
  std::vector<AtomInfo> atoms_;           // global atom table
  std::vector<std::vector<int>> edge_atoms_;  // edge id -> global atom ids
};

}  // namespace gsopt

#endif  // GSOPT_ENUMERATE_ENUMERATOR_H_
