// Hypergraph analysis: preserved sets pres(h) / pres_{h1}(h), closest
// conflicting outer joins ccoj(h0), conflict sets conf(h0) (Definition 3.3)
// and the Theorem-1 preserved-group computation for deferred predicate
// conjuncts. Everything is computed against the ORIGINAL query hypergraph.
//
// The constructor builds two per-edge tables, once, as the paper
// prescribes: each edge's two side regions (the relations reaching its v1 /
// v2 hypernode without crossing it) and its two preserved sides (PresSide).
// SideRegion, OperatorAbove, Pres/Pres1/Pres2, PresAway and DeferredGroups
// read those tables, so the enumerator can ask them for every candidate
// without re-running the path search. The analysis keeps a reference to
// the hypergraph, which must not change after construction.
//
// Reachability uses the paper's path notion ([BHAR95a], footnote 3): a path
// alternates relations and hyperedges, each step CROSSES an edge from one
// hypernode to the other (never moves within a hypernode) and no edge is
// used twice. This matters: in Q6's hyperedge <{r1},{r2,r4}>, r2 and r4 are
// in the same hypernode, so r1 reaching r2 must not implicitly connect r2
// to r4 "backwards" through the same edge.
#ifndef GSOPT_HYPERGRAPH_ANALYSIS_H_
#define GSOPT_HYPERGRAPH_ANALYSIS_H_

#include <array>
#include <vector>

#include "exec/eval.h"
#include "hypergraph/hypergraph.h"

namespace gsopt {

class HypergraphAnalysis {
 public:
  // Builds the per-edge side-region and preserved-side tables.
  explicit HypergraphAnalysis(const Hypergraph& h);

  const Hypergraph& hypergraph() const { return h_; }

  // True if an edge-distinct, hypernode-crossing path exists from `from`
  // to any relation in `targets` avoiding edges in `banned_edges`.
  bool PathExists(int from, RelSet targets, RelSet banned_edges) const;

  // pres(h) for a directed edge: relations with a path into the edge's
  // preserved hypernode avoiding the edge itself ("to the left" of it).
  RelSet Pres(int edge) const;

  // For a bidirected edge: relations reaching its v1 / v2 hypernode.
  RelSet Pres1(int edge) const;
  RelSet Pres2(int edge) const;

  // pres_{away}(h): the side of bidirected h that does NOT contain edge
  // `away` (the relations h preserves "away from" that edge); equals
  // Pres(h) when h is directed.
  RelSet PresAway(int edge, int away_edge) const;

  // Closest conflicting outer joins of an undirected edge: directed edges
  // whose null-supplying hypernode touches the join-connected region of
  // the edge.
  std::vector<int> Ccoj(int edge) const;

  // Definition 3.3 conflict set.
  std::vector<int> Conf(int edge) const;

  // True if `outer`'s operator necessarily sits above `inner`'s in the
  // original query: `inner`'s endpoints lie entirely within one of
  // `outer`'s (null-supplied) side regions. Plans that invert the two need
  // `outer`'s preservation compensated at the inversion point.
  bool OperatorAbove(int outer, int inner) const;

  // Relations reachable from the edge's v1 / v2 hypernode without crossing
  // the edge: its operand-side region in the original query.
  RelSet SideRegion(int edge, bool side1) const;

  // Theorem 1: preserved groups for a generalized selection applying a
  // deferred conjunct of `edge` at the root. Groups subsumed by another
  // group are dropped (a composite group covers its sub-projections).
  std::vector<RelSet> DeferredGroups(int edge) const;

  // Converts relation-id groups to executor preserved groups.
  std::vector<exec::PreservedGroup> ToPreservedGroups(
      const std::vector<RelSet>& groups) const;

 private:
  // All relations with a path into `targets` avoiding `banned_edges`
  // (targets themselves included).
  RelSet ReachingSet(RelSet targets, RelSet banned_edges) const;

  // The preserved reach of one hypernode (the pres_ table's entries),
  // excluding relations attached through edges whose predicate touches
  // the far side's region (such operators cannot match tuples the edge
  // padded, so those relations never ride with the preserved part).
  RelSet PresSide(int edge, bool side1) const;

  // BFS region over selected edge kinds with the hypernode-crossing rule
  // (approximate: edge reuse is not tracked; exact on simple edges).
  RelSet Region(RelSet start, bool allow_undirected, bool allow_directed,
                RelSet banned_edges) const;

  // Bidirected edges incident to the region reachable from `start` via
  // non-bidirected edges.
  std::vector<int> FojsReachable(RelSet start, RelSet banned_edges) const;

  const Hypergraph& h_;
  // Per edge id, indexed [0] for the v1 side and [1] for the v2 side.
  std::vector<std::array<RelSet, 2>> side_region_;  // SideRegion
  std::vector<std::array<RelSet, 2>> pres_;         // PresSide
};

}  // namespace gsopt

#endif  // GSOPT_HYPERGRAPH_ANALYSIS_H_
