#include "hypergraph/analysis.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace gsopt {

namespace {

// The hypernode of `e` across from `rel`; empty when `e` does not touch it.
RelSet Across(const Hyperedge& e, int rel) {
  if (e.v1.Contains(rel)) return e.v2;
  if (e.v2.Contains(rel)) return e.v1;
  return RelSet();
}

// DFS for an edge-distinct, hypernode-crossing path. Query hypergraphs are
// tiny (<= ~15 edges), so the exponential worst case is irrelevant.
bool PathDfs(const Hypergraph& h, int rel, RelSet targets, RelSet used_edges,
             RelSet banned_edges) {
  if (targets.Contains(rel)) return true;
  for (const Hyperedge& e : h.edges()) {
    if (banned_edges.Contains(e.id) || used_edges.Contains(e.id)) continue;
    RelSet next = Across(e, rel);
    RelSet used2 = used_edges;
    used2.Add(e.id);
    for (int nr : next.ToVector()) {
      if (PathDfs(h, nr, targets, used2, banned_edges)) return true;
    }
  }
  return false;
}

// Adds to `reached` every relation some edge-distinct, hypernode-crossing
// path from `rel` reaches. Paths reverse, so a flood from a hypernode
// finds every relation with a path into it. A visit whose used edges
// contain those of an earlier visit to the same relation can reach
// nothing that visit cannot, so it is cut; the flood also stops once
// every relation is reached.
void PathFlood(const Hypergraph& h, int rel, RelSet used_edges,
               RelSet banned_edges,
               std::vector<std::pair<int, RelSet>>* seen, RelSet* reached) {
  for (const auto& [r, earlier] : *seen) {
    if (r == rel && used_edges.ContainsAll(earlier)) return;
  }
  seen->emplace_back(rel, used_edges);
  reached->Add(rel);
  for (const Hyperedge& e : h.edges()) {
    if (*reached == h.AllRels()) return;
    if (banned_edges.Contains(e.id) || used_edges.Contains(e.id)) continue;
    RelSet used2 = used_edges;
    used2.Add(e.id);
    for (RelSet rest = Across(e, rel); !rest.Empty();
         rest.Remove(rest.First())) {
      PathFlood(h, rest.First(), used2, banned_edges, seen, reached);
    }
  }
}

}  // namespace

HypergraphAnalysis::HypergraphAnalysis(const Hypergraph& h) : h_(h) {
  side_region_.resize(h_.NumEdges());
  pres_.resize(h_.NumEdges());
  for (const Hyperedge& e : h_.edges()) {
    side_region_[e.id] = {ReachingSet(e.v1, RelSet::Single(e.id)),
                          ReachingSet(e.v2, RelSet::Single(e.id))};
    pres_[e.id] = {PresSide(e.id, /*side1=*/true),
                   PresSide(e.id, /*side1=*/false)};
  }
}

bool HypergraphAnalysis::PathExists(int from, RelSet targets,
                                    RelSet banned_edges) const {
  return PathDfs(h_, from, targets, RelSet(), banned_edges);
}

RelSet HypergraphAnalysis::ReachingSet(RelSet targets,
                                       RelSet banned_edges) const {
  RelSet out;
  std::vector<std::pair<int, RelSet>> seen;  // (relation, used edges)
  seen.reserve(4 * h_.NumRelations());
  for (int t : targets.ToVector()) {
    PathFlood(h_, t, RelSet(), banned_edges, &seen, &out);
  }
  return out;
}

RelSet HypergraphAnalysis::PresSide(int edge, bool side1) const {
  // Trace the fate of a tuple that this edge's operator pads: it keeps the
  // chosen side's columns REAL and null-pads the other operand, then climbs
  // the original operator tree. Each ancestor operator either
  //   - stays evaluable (its non-tautology atoms avoid every padded
  //     column): the padded tuple joins like a real one and the ancestor's
  //     other operand RIDES along -- its columns are real in the group;
  //   - goes UNKNOWN: a join filter KILLS the tuple (no group at all), a
  //     directed edge null-supplying our chain DROPS it likewise, and a
  //     directed edge preserving us (or a full outer join) pads the other
  //     operand too -- those columns stay out of the group.
  // Operand subtrees (below1/below2, recorded at build time) give the true
  // above/below order. Reachability floods cannot: sibling subtrees get
  // value-connected into far regions through ancestors above both (cf. Q5,
  // where r5-r6 is a sibling of the FOJ, not above it).
  const Hyperedge& e = h_.edge(edge);
  RelSet real = side1 ? e.below1 : e.below2;
  RelSet padded = side1 ? e.below2 : e.below1;
  RelSet mine = e.BelowAll();
  // Ancestors: edges whose combined operand subtrees strictly contain
  // this edge's. The subtrees form a laminar family, so sorting by size
  // walks the ancestor chain innermost-first.
  std::vector<int> anc;
  for (const Hyperedge& a : h_.edges()) {
    if (a.id == edge) continue;
    RelSet ab = a.BelowAll();
    if (ab.ContainsAll(mine) && ab != mine) anc.push_back(a.id);
  }
  std::sort(anc.begin(), anc.end(), [&](int x, int y) {
    return h_.edge(x).BelowAll().Count() < h_.edge(y).BelowAll().Count();
  });
  for (int aid : anc) {
    const Hyperedge& a = h_.edge(aid);
    // Which operand of the ancestor holds our chain? (Intersects as a
    // best-effort fallback for hand-built graphs with default below sets.)
    bool ours_is_b1 = a.below1.ContainsAll(mine) ||
                      (!a.below2.ContainsAll(mine) && a.below1.Intersects(mine));
    RelSet other = ours_is_b1 ? a.below2 : a.below1;
    bool unknown = false;
    for (const EdgeAtom& ea : a.atoms) {
      if (!ea.span.Intersects(padded)) continue;
      if (ea.atom.RelNames().empty()) continue;  // tautology: never UNKNOWN
      unknown = true;
      break;
    }
    if (!unknown) {
      real = real.Union(other);
    } else if (a.kind == EdgeKind::kUndirected) {
      return RelSet();  // filter kills the padded tuple: no group
    } else if (a.kind == EdgeKind::kDirected && !ours_is_b1) {
      return RelSet();  // null-supplied side fails to join: dropped
    } else {
      padded = padded.Union(other);  // survives, padded further
    }
    mine = a.BelowAll();
  }
  return real;
}

RelSet HypergraphAnalysis::Pres(int edge) const {
  const Hyperedge& e = h_.edge(edge);
  GSOPT_CHECK_MSG(e.kind != EdgeKind::kUndirected,
                  "Pres() needs a (bi)directed edge");
  return pres_[edge][0];
}

RelSet HypergraphAnalysis::Pres1(int edge) const { return pres_[edge][0]; }

RelSet HypergraphAnalysis::Pres2(int edge) const { return pres_[edge][1]; }

RelSet HypergraphAnalysis::PresAway(int edge, int away_edge) const {
  const Hyperedge& e = h_.edge(edge);
  if (e.kind == EdgeKind::kDirected) return Pres(edge);
  RelSet s1 = Pres1(edge);
  RelSet s2 = Pres2(edge);
  RelSet away = h_.edge(away_edge).Endpoints();
  // The away edge lies on one side of h (simple queries: h disconnects H);
  // h preserves the other side "away from" it.
  bool in_s1 = s1.Intersects(away);
  bool in_s2 = s2.Intersects(away);
  if (in_s1 && !in_s2) return s2;
  if (in_s2 && !in_s1) return s1;
  // Ambiguous (cyclic or the away edge touches both sides): be conservative
  // and preserve both sides separately is impossible here, so return the
  // union; DeferredGroups' subsumption handles duplicates.
  return s1.Union(s2);
}

RelSet HypergraphAnalysis::SideRegion(int edge, bool side1) const {
  return side_region_[edge][side1 ? 0 : 1];
}

bool HypergraphAnalysis::OperatorAbove(int outer, int inner) const {
  if (outer == inner) return false;
  const Hyperedge& o = h_.edge(outer);
  RelSet inner_eps = h_.edge(inner).Endpoints();
  if (o.kind == EdgeKind::kDirected) {
    return side_region_[outer][1].ContainsAll(inner_eps);
  }
  if (o.kind == EdgeKind::kBidirected) {
    return side_region_[outer][0].ContainsAll(inner_eps) ||
           side_region_[outer][1].ContainsAll(inner_eps);
  }
  return false;
}

std::vector<int> HypergraphAnalysis::Ccoj(int edge) const {
  const Hyperedge& e = h_.edge(edge);
  GSOPT_CHECK_MSG(e.kind == EdgeKind::kUndirected,
                  "ccoj() is defined for join edges");
  RelSet region = Region(e.Endpoints(), /*undirected=*/true,
                         /*directed=*/false, RelSet::Single(edge));
  std::vector<int> out;
  for (const Hyperedge& cand : h_.edges()) {
    if (cand.kind != EdgeKind::kDirected) continue;
    if (cand.v2.Intersects(region)) out.push_back(cand.id);
  }
  return out;
}

RelSet HypergraphAnalysis::Region(RelSet start, bool allow_undirected,
                                  bool allow_directed,
                                  RelSet banned_edges) const {
  RelSet reached = start;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Hyperedge& e : h_.edges()) {
      if (banned_edges.Contains(e.id)) continue;
      bool ok = (e.kind == EdgeKind::kUndirected && allow_undirected) ||
                (e.kind == EdgeKind::kDirected && allow_directed);
      if (!ok) continue;
      RelSet add;
      if (e.v1.Intersects(reached)) add = add.Union(e.v2);
      if (e.v2.Intersects(reached)) add = add.Union(e.v1);
      if (!add.Empty() && !reached.ContainsAll(add)) {
        reached = reached.Union(add);
        changed = true;
      }
    }
  }
  return reached;
}

std::vector<int> HypergraphAnalysis::FojsReachable(RelSet start,
                                                   RelSet banned_edges) const {
  RelSet reached = Region(start, /*undirected=*/true, /*directed=*/true,
                          banned_edges);
  std::vector<int> out;
  for (const Hyperedge& cand : h_.edges()) {
    if (cand.kind != EdgeKind::kBidirected) continue;
    if (banned_edges.Contains(cand.id)) continue;
    if (cand.Endpoints().Intersects(reached)) out.push_back(cand.id);
  }
  return out;
}

std::vector<int> HypergraphAnalysis::Conf(int edge) const {
  const Hyperedge& e = h_.edge(edge);
  switch (e.kind) {
    case EdgeKind::kBidirected:
      // Definition 3.3 sets conf(bidirected) = {} because Theorem 1 places
      // the complex edge at the root (Lemma 1). Our enumerator defers
      // conjuncts of edges anywhere in the tree, so other full outer joins
      // around the edge conflict exactly as they do for directed edges;
      // their away-side groups are usually subsumed by pres1/pres2.
      return FojsReachable(e.Endpoints(), RelSet::Single(edge));
    case EdgeKind::kDirected:
      // Full outer joins reachable through join / one-sided outer join
      // edges (Definition 3.3 uses the null-supplying side; we start from
      // both hypernodes for the same at-root-vs-anywhere reason -- the
      // extra groups are subsumed when redundant).
      return FojsReachable(e.Endpoints(), RelSet::Single(edge));
    case EdgeKind::kUndirected: {
      std::vector<int> ccoj = Ccoj(edge);
      if (ccoj.empty()) {
        return FojsReachable(e.Endpoints(), RelSet::Single(edge));
      }
      std::vector<int> out;
      for (int h : ccoj) {
        out.push_back(h);
        for (int c : Conf(h)) out.push_back(c);
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    }
  }
  return {};
}

std::vector<RelSet> HypergraphAnalysis::DeferredGroups(int edge) const {
  const Hyperedge& e = h_.edge(edge);
  std::vector<RelSet> groups;
  switch (e.kind) {
    case EdgeKind::kBidirected:
      for (int hi : Conf(edge)) groups.push_back(PresAway(hi, edge));
      groups.push_back(Pres1(edge));
      groups.push_back(Pres2(edge));
      break;
    case EdgeKind::kDirected:
      for (int hi : Conf(edge)) groups.push_back(PresAway(hi, edge));
      groups.push_back(Pres(edge));
      break;
    case EdgeKind::kUndirected:
      for (int hi : Conf(edge)) groups.push_back(PresAway(hi, edge));
      break;
  }
  // A side whose padded tuples die above (PresSide returned empty) has
  // nothing to resurrect; drop it before subsumption.
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const RelSet& g) { return g.Empty(); }),
               groups.end());
  // Drop groups subsumed by another group (a composite preserved relation
  // covers every sub-projection of itself), then require disjointness.
  std::vector<RelSet> kept;
  for (size_t i = 0; i < groups.size(); ++i) {
    bool subsumed = false;
    for (size_t j = 0; j < groups.size(); ++j) {
      if (i == j) continue;
      if (groups[j].ContainsAll(groups[i]) &&
          (groups[j] != groups[i] || j < i)) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(groups[i]);
  }
  // Overlapping groups stay separate: ride-along extension routinely puts
  // a relation joined above the edge by an always-evaluable predicate into
  // BOTH sides' groups (each side's resurrections pair with its rows), and
  // the executor resurrects every group independently.
  return kept;
}

std::vector<exec::PreservedGroup> HypergraphAnalysis::ToPreservedGroups(
    const std::vector<RelSet>& groups) const {
  std::vector<exec::PreservedGroup> out;
  for (const RelSet& g : groups) {
    exec::PreservedGroup pg;
    for (int id : g.ToVector()) {
      for (const std::string& q : h_.Qualifiers(id)) pg.insert(q);
    }
    out.push_back(std::move(pg));
  }
  return out;
}

}  // namespace gsopt
