#include "enumerate/enumerator.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace gsopt {

namespace {

// Folds `v` into a shape hash (splitmix64's finalizer over a
// boost-style combine).
uint64_t HashFold(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t HashText(const std::string& text) {
  return std::hash<std::string>{}(text);
}

// The plans kept so far, keyed by shape hash. A plan is new unless an
// earlier plan with the same hash prints identically, so only a hash
// collision (or an exact `p AND p` duplicate) pays for printing.
class ShapeSet {
 public:
  bool Insert(uint64_t hash, const NodePtr& expr) {
    auto [lo, hi] = seen_.equal_range(hash);
    if (lo != hi) {
      std::string text = expr->ToString();
      for (auto it = lo; it != hi; ++it) {
        if (it->second->ToString() == text) return false;
      }
    }
    seen_.emplace(hash, expr);
    return true;
  }

 private:
  std::unordered_multimap<uint64_t, NodePtr> seen_;
};

}  // namespace

std::string EnumModeName(EnumMode m) {
  switch (m) {
    case EnumMode::kBinaryOnly:
      return "binary-only";
    case EnumMode::kBaseline:
      return "baseline";
    case EnumMode::kGeneralized:
      return "generalized";
  }
  return "?";
}

Enumerator::Enumerator(const Hypergraph& h, EnumOptions options)
    : h_(h), analysis_(h), options_(options) {
  edge_atoms_.resize(h_.NumEdges());
  for (const Hyperedge& e : h_.edges()) {
    for (size_t i = 0; i < e.atoms.size(); ++i) {
      if (atoms_.size() >= RelSet::kMaxRelations) {
        // Atom ids share RelSet's 64-bit index space; a query exceeding it
        // is user input, so fail from Enumerate() instead of aborting.
        init_status_ = Status::InvalidArgument(
            "too many predicate atoms (limit " +
            std::to_string(RelSet::kMaxRelations) + ")");
        return;
      }
      edge_atoms_[e.id].push_back(static_cast<int>(atoms_.size()));
      atoms_.push_back(AtomInfo{e.id, static_cast<int>(i), e.atoms[i].span,
                                HashText(e.atoms[i].atom.ToString())});
    }
  }
}

NodePtr Enumerator::LeafExpr(int rel_id) const {
  auto it = leaf_exprs_.find(h_.RelName(rel_id));
  if (it != leaf_exprs_.end()) return it->second;
  return Node::Leaf(h_.RelName(rel_id));
}

bool Enumerator::SubsetConnected(RelSet rels) const {
  if (options_.mode == EnumMode::kGeneralized) {
    return h_.Connected(rels);  // atom sub-edges allowed (Definition 3.2)
  }
  // Definition 2.3: only whole hyperedges (both hypernodes inside) connect.
  if (rels.Empty()) return false;
  if (rels.Count() == 1) return true;
  RelSet reached = RelSet::Single(rels.First());
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Hyperedge& e : h_.edges()) {
      RelSet eps = e.Endpoints();
      if (!rels.ContainsAll(eps)) continue;
      if (eps.Intersects(reached) && !reached.ContainsAll(eps)) {
        reached = reached.Union(eps);
        changed = true;
      }
    }
  }
  return reached.ContainsAll(rels);
}

namespace {

// Preserved-group post-processing: union overlapping groups, drop subsumed.
std::vector<RelSet> NormalizeGroups(std::vector<RelSet> groups) {
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t i = 0; i < groups.size() && !merged; ++i) {
      for (size_t j = i + 1; j < groups.size() && !merged; ++j) {
        if (groups[i].Intersects(groups[j])) {
          groups[i] = groups[i].Union(groups[j]);
          groups.erase(groups.begin() + static_cast<long>(j));
          merged = true;
        }
      }
    }
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

}  // namespace

void Enumerator::EmitCombination(RelSet s1, const SubPlan& p1, RelSet s2,
                                 const SubPlan& p2, RelSet apply_atoms,
                                 std::vector<SubPlan>* out) const {
  // Which (bi)directed edges get their operator placed at this node?
  RelSet placing;
  for (int aid : apply_atoms.ToVector()) {
    const AtomInfo& ai = atoms_[aid];
    const Hyperedge& e = h_.edge(ai.edge_id);
    if (e.kind != EdgeKind::kUndirected) placing.Add(ai.edge_id);
  }

  // Determine operator kind and orientation.
  bool preserved_is_s1 = false;
  OpKind op = OpKind::kInnerJoin;
  if (!placing.Empty()) {
    bool first = true;
    for (int eid : placing.ToVector()) {
      const Hyperedge& e = h_.edge(eid);
      // Each applied atom of e must separate P-part into one side and
      // N-part into the other, consistently.
      bool this_pres_s1 = false, oriented = false;
      for (int aid : apply_atoms.ToVector()) {
        if (atoms_[aid].edge_id != eid) continue;
        RelSet pp = atoms_[aid].span.Intersect(e.v1);
        RelSet np = atoms_[aid].span.Intersect(e.v2);
        bool p_in_1 = s1.ContainsAll(pp), n_in_2 = s2.ContainsAll(np);
        bool p_in_2 = s2.ContainsAll(pp), n_in_1 = s1.ContainsAll(np);
        bool o1 = p_in_1 && n_in_2;
        bool o2 = p_in_2 && n_in_1;
        if (!o1 && !o2) return;  // atom straddles inconsistently
        if (oriented && this_pres_s1 != o1) return;
        this_pres_s1 = o1;
        oriented = true;
      }
      OpKind this_op = e.kind == EdgeKind::kBidirected
                           ? OpKind::kFullOuterJoin
                           : OpKind::kLeftOuterJoin;
      if (first) {
        op = this_op;
        preserved_is_s1 = this_pres_s1;
        first = false;
      } else if (op != this_op || preserved_is_s1 != this_pres_s1) {
        return;  // conflicting operator requirements
      }
    }
  }

  // A join conjunct the original query evaluates ABOVE a (bi)directed edge
  // (its edge was created later, id order follows the tree bottom-up) and
  // that references the edge's null-supplied region there FILTERS the
  // edge's padded tuples. Placing the edge's operator at this node when
  // such a conjunct is already applied below inverts that order: padding
  // created here escapes the filter, and no generalized-selection
  // compensation can DELETE rows. Reject the combination.
  if (!placing.Empty()) {
    RelSet below = p1.applied_atoms.Union(p2.applied_atoms);
    for (int eid : placing.ToVector()) {
      const Hyperedge& e = h_.edge(eid);
      auto padding_escapes = [&](RelSet null_region) {
        for (int aid : below.ToVector()) {
          const AtomInfo& ai = atoms_[aid];
          const Hyperedge& ae = h_.edge(ai.edge_id);
          if (ae.kind != EdgeKind::kUndirected) continue;
          if (ai.edge_id <= eid) continue;  // evaluated below the edge
          if (!ai.span.Intersects(null_region)) continue;
          const Atom& atom = ae.atoms[ai.index_in_edge].atom;
          if (atom.RelNames().empty()) continue;  // tautology: never UNKNOWN
          return true;
        }
        return false;
      };
      if (e.kind == EdgeKind::kDirected) {
        if (padding_escapes(analysis_.SideRegion(eid, /*side1=*/false))) {
          return;
        }
      } else if (e.kind == EdgeKind::kBidirected) {
        if (padding_escapes(analysis_.SideRegion(eid, /*side1=*/true)) ||
            padding_escapes(analysis_.SideRegion(eid, /*side1=*/false))) {
          return;
        }
      }
    }
  }

  // Compensation groups for outer-join promises made below this node.
  // Applying an edge X's atoms above an already-placed (bi)directed edge h
  // needs compensation only when h CONFLICTS with X (Definition 3.3 /
  // ccoj: the original query requires h's operator above X's). When the
  // original itself evaluates h below X, dropping h-padded tuples at this
  // node is exactly the original semantics and a plain operator is right.
  RelSet atom_rels;
  RelSet conflicting;  // edges conflicting with any applied atom's edge
  {
    RelSet applied_edges;
    for (int aid : apply_atoms.ToVector()) {
      atom_rels = atom_rels.Union(atoms_[aid].span);
      applied_edges.Add(atoms_[aid].edge_id);
    }
    for (int xid : applied_edges.ToVector()) {
      // Outer edges whose operator the original evaluates ABOVE x: a plan
      // applying x later than them inverts the order, so their
      // preservation promises need compensation here. Edges the original
      // evaluates below x need none -- conf/ccoj membership alone is NOT
      // conflict here (those sets answer the different question of which
      // promises a conjunct deferred PAST its edge's operator endangers;
      // see Finalize). Compensating a same-order placement resurrects rows
      // the original operator kills, e.g. (v FOJ r3) JOIN r4 with r4
      // empty: the original join emits nothing, an MGOJ would revive the
      // FOJ sides.
      for (const Hyperedge& h : h_.edges()) {
        if (h.kind != EdgeKind::kUndirected &&
            analysis_.OperatorAbove(h.id, xid)) {
          conflicting.Add(h.id);
        }
      }
    }
  }
  std::vector<RelSet> groups;
  auto check_side = [&](RelSet side, const SubPlan& p) {
    for (int eid : p.placed_edges.ToVector()) {
      if (!conflicting.Contains(eid)) continue;
      const Hyperedge& e = h_.edge(eid);
      auto consider = [&](RelSet pres_region) {
        RelSet padded = side.Minus(pres_region);
        if (atom_rels.Intersects(padded)) {
          RelSet g = pres_region.Intersect(side);
          if (!g.Empty() && g != side) groups.push_back(g);
        }
      };
      if (e.kind == EdgeKind::kDirected) {
        consider(analysis_.Pres(eid));
      } else if (e.kind == EdgeKind::kBidirected) {
        consider(analysis_.Pres1(eid));
        consider(analysis_.Pres2(eid));
      }
    }
  };
  // Endangered sides: both for inner join, the null-supplying side for
  // LOJ, none for FOJ (it preserves both operands wholesale).
  if (op == OpKind::kInnerJoin) {
    check_side(s1, p1);
    check_side(s2, p2);
  } else if (op == OpKind::kLeftOuterJoin) {
    if (preserved_is_s1) {
      check_side(s2, p2);
    } else {
      check_side(s1, p1);
    }
  }

  Predicate pred;
  uint64_t pred_hash = 0;
  for (int aid : apply_atoms.ToVector()) {
    pred.AddAtom(h_.edge(atoms_[aid].edge_id).atoms[atoms_[aid].index_in_edge]
                     .atom);
    pred_hash = HashFold(pred_hash, atoms_[aid].text_hash);
  }

  SubPlan np;
  np.applied_atoms = p1.applied_atoms.Union(p2.applied_atoms)
                         .Union(apply_atoms);
  np.placed_edges = p1.placed_edges.Union(p2.placed_edges).Union(placing);
  np.num_mgoj = p1.num_mgoj + p2.num_mgoj;
  // Canonical orientation for dedup: an LOJ's preserved side goes left,
  // otherwise the smaller relation set does.
  bool p1_left = groups.empty() && op == OpKind::kLeftOuterJoin
                     ? preserved_is_s1
                     : s1 < s2;
  const SubPlan& left = p1_left ? p1 : p2;
  const SubPlan& right = p1_left ? p2 : p1;

  if (groups.empty()) {
    np.expr = Node::Binary(op, left.expr, right.expr, std::move(pred));
  } else {
    if (options_.mode == EnumMode::kBinaryOnly) return;  // needs MGOJ
    // Operator with compensation: MGOJ preserving the endangered promises
    // plus (for outer placements) the preserved operand side.
    if (op == OpKind::kLeftOuterJoin) {
      groups.push_back(preserved_is_s1 ? s1 : s2);
    } else if (op == OpKind::kFullOuterJoin) {
      groups.push_back(s1);
      groups.push_back(s2);
    }
    groups = NormalizeGroups(std::move(groups));
    op = OpKind::kMgoj;
    for (const RelSet& g : groups) pred_hash = HashFold(pred_hash, g.bits());
    np.expr = Node::Mgoj(left.expr, right.expr, std::move(pred),
                         analysis_.ToPreservedGroups(groups));
    np.num_mgoj += 1;
  }
  np.hash = HashFold(
      HashFold(HashFold(static_cast<uint64_t>(op), left.hash), right.hash),
      pred_hash);
  out->push_back(std::move(np));
}

void Enumerator::Combine(RelSet s1, const SubPlan& p1, RelSet s2,
                         const SubPlan& p2,
                         std::vector<SubPlan>* out) const {
  // A (bi)directed edge has exactly one operator; two parallel subtrees
  // that each placed it cannot be merged.
  if (p1.placed_edges.Intersects(p2.placed_edges)) return;
  RelSet s = s1.Union(s2);

  // Crossing edges and applicable atoms.
  RelSet applicable;                  // atom ids applicable here
  std::vector<int> placeable_edges;   // (bi)directed edges placeable here
  RelSet already = p1.applied_atoms.Union(p2.applied_atoms);
  RelSet placed_below = p1.placed_edges.Union(p2.placed_edges);

  for (const Hyperedge& e : h_.edges()) {
    // Atoms of e applicable at this combination.
    RelSet e_applicable;
    for (int aid : edge_atoms_[e.id]) {
      const RelSet span = atoms_[aid].span;
      if (already.Contains(aid)) continue;
      if (!s.ContainsAll(span)) continue;
      if (!span.Intersects(s1) || !span.Intersects(s2)) continue;
      e_applicable.Add(aid);
    }
    if (e_applicable.Empty()) continue;

    if (options_.mode != EnumMode::kGeneralized) {
      // Definition 2.3: the whole hyperedge must fit across the split.
      bool fits = (s1.ContainsAll(e.v1) && s2.ContainsAll(e.v2)) ||
                  (s2.ContainsAll(e.v1) && s1.ContainsAll(e.v2));
      if (!fits) return;  // combination invalid in this mode
      // All atoms of the edge apply at once.
      for (int aid : edge_atoms_[e.id]) {
        if (!already.Contains(aid)) e_applicable.Add(aid);
      }
    }

    if (e.kind != EdgeKind::kUndirected) {
      if (placed_below.Contains(e.id)) {
        // The edge's operator is below; its remaining atoms may only be
        // applied by the root compensation, never mid-tree.
        continue;
      }
      if (e.kind == EdgeKind::kBidirected) {
        // A full outer join preserves its operand sides wholesale; placing
        // it while a hypernode is only partially assembled would preserve
        // lone fragments (e.g. bare r4-rows) the original query never
        // emits, and no GS compensation can delete rows. Require both
        // hypernodes whole.
        bool fits = (s1.ContainsAll(e.v1) && s2.ContainsAll(e.v2)) ||
                    (s2.ContainsAll(e.v1) && s1.ContainsAll(e.v2));
        if (!fits) continue;  // atoms stay unapplied here
      }
      placeable_edges.push_back(e.id);
    }
    applicable = applicable.Union(e_applicable);
  }

  if (applicable.Empty()) return;  // no cartesian products

  // Split applicable atoms into outer-edge atoms and join atoms.
  RelSet outer_atoms, join_atoms;
  for (int aid : applicable.ToVector()) {
    if (h_.edge(atoms_[aid].edge_id).kind == EdgeKind::kUndirected) {
      join_atoms.Add(aid);
    } else {
      outer_atoms.Add(aid);
    }
  }

  if (!placeable_edges.empty()) {
    // Outer-join placement. Join atoms crossing the same node cannot be
    // folded into an outer predicate (they filter, the outer pads), so
    // they are deferred to the root (generalized mode only).
    if (options_.mode == EnumMode::kGeneralized && !join_atoms.Empty()) {
      // fallthrough with outer atoms only
    } else if (!join_atoms.Empty()) {
      return;  // not expressible in Definition 2.3 modes
    }
    EmitCombination(s1, p1, s2, p2, outer_atoms, out);
    if (options_.mode == EnumMode::kGeneralized &&
        options_.enumerate_partial_keeps && outer_atoms.Count() > 1) {
      // Voluntarily defer strict subsets of the applicable outer atoms
      // (each choice is a distinct Definition 3.2 break-up).
      std::vector<int> ids = outer_atoms.ToVector();
      int k = static_cast<int>(ids.size());
      for (uint64_t mask = 1; mask + 1 < (1ull << k); ++mask) {
        RelSet keep;
        for (int b = 0; b < k; ++b) {
          if ((mask >> b) & 1) keep.Add(ids[b]);
        }
        // Every placeable edge still needs >= 1 kept atom here.
        bool ok = true;
        for (int eid : placeable_edges) {
          bool any = false;
          for (int aid : keep.ToVector()) {
            if (atoms_[aid].edge_id == eid) any = true;
          }
          if (!any) ok = false;
        }
        if (!ok) continue;
        EmitCombination(s1, p1, s2, p2, keep, out);
      }
    }
  } else {
    // Pure join combination.
    EmitCombination(s1, p1, s2, p2, join_atoms, out);
  }
}

StatusOr<PlanCandidate> Enumerator::Finalize(const SubPlan& plan,
                                             uint64_t* hash) const {
  // Every (bi)directed edge must have placed its operator somewhere.
  for (const Hyperedge& e : h_.edges()) {
    if (e.kind != EdgeKind::kUndirected && !plan.placed_edges.Contains(e.id)) {
      return Status::Internal("outer-join edge never placed");
    }
  }
  PlanCandidate cand;
  cand.num_mgoj = plan.num_mgoj;
  NodePtr expr = plan.expr;
  *hash = plan.hash;
  // Wrap deferred atoms, one generalized selection per edge, inner edges
  // first (edges are created bottom-up, so increasing id goes outward).
  for (const Hyperedge& e : h_.edges()) {
    Predicate deferred;
    uint64_t gs_hash = 0;
    for (int aid : edge_atoms_[e.id]) {
      if (!plan.applied_atoms.Contains(aid)) {
        deferred.AddAtom(e.atoms[atoms_[aid].index_in_edge].atom);
        gs_hash = HashFold(gs_hash, atoms_[aid].text_hash);
        ++cand.num_deferred;
      }
    }
    if (deferred.IsTrue()) continue;
    if (options_.mode != EnumMode::kGeneralized) {
      return Status::Internal("deferred atoms outside generalized mode");
    }
    std::vector<RelSet> groups = analysis_.DeferredGroups(e.id);
    for (const RelSet& g : groups) gs_hash = HashFold(gs_hash, g.bits());
    *hash = HashFold(
        HashFold(static_cast<uint64_t>(OpKind::kGeneralizedSelection), *hash),
        gs_hash);
    expr = Node::GeneralizedSelection(expr, deferred,
                                      analysis_.ToPreservedGroups(groups));
  }
  cand.expr = expr;
  return cand;
}

StatusOr<EnumerationResult> Enumerator::Enumerate() {
  GSOPT_RETURN_IF_ERROR(init_status_);
  int n = h_.NumRelations();
  if (n == 0) return Status::InvalidArgument("empty hypergraph");
  if (!SubsetConnected(h_.AllRels())) {
    return Status::InvalidArgument("query hypergraph is not connected");
  }
  ResourceBudget* budget = options_.budget;
  if (budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(budget->CheckDeadlineNow("enumerate"));
  }
  // Effective subplan cap: the per-call option tightened by whatever plan
  // allowance remains on the budget (which is shared across the stages of
  // one query).
  size_t cap = options_.max_plans;
  if (budget != nullptr) {
    cap = std::min<uint64_t>(cap, budget->PlansRemaining());
  }

  std::unordered_map<uint64_t, std::vector<SubPlan>> table;
  // Singletons.
  for (int r = 0; r < n; ++r) {
    SubPlan sp;
    sp.expr = LeafExpr(r);
    sp.hash = HashText(sp.expr->ToString());
    table[RelSet::Single(r).bits()].push_back(std::move(sp));
  }

  uint64_t full = h_.AllRels().bits();
  size_t total_emitted = 0;
  size_t total_pruned = 0;
  bool truncated = false;
  // Subsets in increasing popcount order.
  std::vector<uint64_t> subsets;
  for (uint64_t s = 1; s <= full; ++s) {
    if ((s & full) == s && __builtin_popcountll(s) >= 2) subsets.push_back(s);
  }
  std::sort(subsets.begin(), subsets.end(), [](uint64_t a, uint64_t b) {
    int pa = __builtin_popcountll(a), pb = __builtin_popcountll(b);
    return pa != pb ? pa < pb : a < b;
  });

  for (uint64_t sbits : subsets) {
    RelSet s(sbits);
    if (!SubsetConnected(s)) continue;
    if (budget != nullptr) {
      GSOPT_RETURN_IF_ERROR(budget->CheckDeadlineNow("enumerate"));
    }
    std::vector<SubPlan> plans;
    ShapeSet seen;
    uint64_t low = sbits & (~sbits + 1);  // lowest bit stays in s1
    for (uint64_t sub = (sbits - 1) & sbits; sub; sub = (sub - 1) & sbits) {
      if (!(sub & low)) continue;
      // Past the cap the DP must stay connected but needn't explore: one
      // plan per subset keeps every larger subset (and the full set)
      // reachable while cutting the combinatorial fan-out.
      if (truncated && !plans.empty()) break;
      uint64_t other = sbits ^ sub;
      if (other == 0) continue;
      auto it1 = table.find(sub);
      auto it2 = table.find(other);
      if (it1 == table.end() || it2 == table.end()) continue;
      RelSet s1(sub), s2(other);
      for (const SubPlan& p1 : it1->second) {
        if (truncated && !plans.empty()) break;
        for (const SubPlan& p2 : it2->second) {
          if (budget != nullptr) {
            GSOPT_RETURN_IF_ERROR(budget->CheckDeadline("enumerate"));
          }
          if (truncated && !plans.empty()) break;
          std::vector<SubPlan> emitted;
          Combine(s1, p1, s2, p2, &emitted);
          for (SubPlan& np : emitted) {
            if (seen.Insert(np.hash, np.expr)) {
              if (options_.cost_fn) np.cost = options_.cost_fn(np.expr);
              plans.push_back(std::move(np));
              if (++total_emitted >= cap) truncated = true;
            }
            if (truncated) break;
          }
        }
      }
    }
    if (options_.cost_fn && !plans.empty()) {
      // Keep the cheapest plan per compensation state.
      std::map<std::pair<uint64_t, uint64_t>, SubPlan> best;
      for (SubPlan& sp : plans) {
        auto key = std::make_pair(sp.applied_atoms.bits(),
                                  sp.placed_edges.bits());
        auto it = best.find(key);
        if (it == best.end() || sp.cost < it->second.cost) {
          best[key] = std::move(sp);
        }
      }
      total_pruned += plans.size() - best.size();
      plans.clear();
      for (auto& [key, sp] : best) plans.push_back(std::move(sp));
    }
    if (!plans.empty()) table[sbits] = std::move(plans);
  }

  if (budget != nullptr) budget->AddPlans(total_emitted);

  auto it = table.find(full);
  if (it == table.end()) {
    return Status::NotFound("no plan covers all relations");
  }
  EnumerationResult result;
  result.truncated = truncated;
  result.subplans_emitted = total_emitted;
  result.dp_cells = table.size();
  result.dp_pruned = total_pruned;
  ShapeSet seen;
  for (const SubPlan& sp : it->second) {
    uint64_t hash = 0;
    auto cand = Finalize(sp, &hash);
    if (!cand.ok()) continue;
    if (seen.Insert(hash, cand->expr)) result.plans.push_back(std::move(*cand));
  }
  if (result.plans.empty()) {
    return Status::NotFound("no valid finalized plan");
  }
  return result;
}

StatusOr<long long> Enumerator::CountAssociationTrees() {
  GSOPT_RETURN_IF_ERROR(init_status_);
  int n = h_.NumRelations();
  if (n == 0) return Status::InvalidArgument("empty hypergraph");
  std::unordered_map<uint64_t, long long> cnt;
  for (int r = 0; r < n; ++r) cnt[RelSet::Single(r).bits()] = 1;

  uint64_t full = h_.AllRels().bits();
  std::vector<uint64_t> subsets;
  for (uint64_t s = 1; s <= full; ++s) {
    if ((s & full) == s && __builtin_popcountll(s) >= 2) subsets.push_back(s);
  }
  std::sort(subsets.begin(), subsets.end(), [](uint64_t a, uint64_t b) {
    int pa = __builtin_popcountll(a), pb = __builtin_popcountll(b);
    return pa != pb ? pa < pb : a < b;
  });

  for (uint64_t sbits : subsets) {
    RelSet s(sbits);
    if (!SubsetConnected(s)) continue;
    if (options_.budget != nullptr) {
      GSOPT_RETURN_IF_ERROR(options_.budget->CheckDeadlineNow("count-trees"));
    }
    long long total = 0;
    uint64_t low = sbits & (~sbits + 1);
    for (uint64_t sub = (sbits - 1) & sbits; sub; sub = (sub - 1) & sbits) {
      if (!(sub & low)) continue;
      uint64_t other = sbits ^ sub;
      auto i1 = cnt.find(sub);
      auto i2 = cnt.find(other);
      if (i1 == cnt.end() || i2 == cnt.end()) continue;
      RelSet s1(sub), s2(other);
      // Valid combination: at least one applicable crossing atom, and in
      // Definition 2.3 modes every crossing edge fits the split whole.
      bool any_atom = false;
      bool valid = true;
      for (const Hyperedge& e : h_.edges()) {
        bool usable = false;
        for (int aid : edge_atoms_[e.id]) {
          const RelSet span = atoms_[aid].span;
          if (s.ContainsAll(span) && span.Intersects(s1) &&
              span.Intersects(s2)) {
            usable = true;
            break;
          }
        }
        if (!usable) continue;
        if (options_.mode != EnumMode::kGeneralized) {
          // Definition 2.3: an edge used at a combination must fit whole.
          bool fits = (s1.ContainsAll(e.v1) && s2.ContainsAll(e.v2)) ||
                      (s2.ContainsAll(e.v1) && s1.ContainsAll(e.v2));
          if (!fits) {
            valid = false;
            continue;
          }
        }
        any_atom = true;
      }
      if (any_atom && valid) total += i1->second * i2->second;
    }
    if (total > 0) cnt[sbits] = total;
  }
  auto it = cnt.find(full);
  if (it == cnt.end()) return Status::NotFound("no association tree");
  return it->second;
}

}  // namespace gsopt
