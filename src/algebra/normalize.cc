#include "algebra/normalize.h"

#include <set>

#include "algebra/schema_infer.h"
#include "base/check.h"

namespace gsopt {

namespace {

using QualSet = std::set<std::string>;

// Qualifiers a wrapper's output adds (aggregation output relations).
void AddWrapperQuals(const Wrapper& w, QualSet* quals) {
  if (w.kind == Wrapper::Kind::kGroupBy) {
    QualSet kept;
    for (const Attribute& a : w.spec.group_cols) kept.insert(a.rel);
    for (const exec::AggSpec& agg : w.spec.aggs) kept.insert(agg.out_rel);
    *quals = kept;  // a group-by replaces the visible column set
  }
}

struct Side {
  NodePtr tree;
  std::vector<Wrapper> wrappers;
  std::vector<Attribute> drop_cols;
  QualSet tree_quals;  // qualifiers of tree's own output

  QualSet FinalQuals() const {
    QualSet q = tree_quals;
    for (const Wrapper& w : wrappers) AddWrapperQuals(w, &q);
    return q;
  }
};

// Base relations whose virtual attributes (row ids) survive the tree's
// output: group-bys keep only their grouping vids; renamed/opaque
// projections keep none. Grouping keys may only include surviving vids.
QualSet AvailableVids(const NodePtr& n) {
  switch (n->kind()) {
    case OpKind::kLeaf:
      return {n->table()};
    case OpKind::kSelect:
    case OpKind::kGeneralizedSelection:
      return AvailableVids(n->left());
    case OpKind::kGroupBy: {
      QualSet child = AvailableVids(n->left());
      QualSet out;
      for (const std::string& r : n->groupby().group_vid_rels) {
        if (child.count(r)) out.insert(r);
      }
      return out;
    }
    case OpKind::kProject: {
      if (n->projection_out() != n->projection()) return {};  // renamed
      QualSet child = AvailableVids(n->left());
      QualSet kept;
      for (const Attribute& a : n->projection()) {
        if (child.count(a.rel)) kept.insert(a.rel);
      }
      return kept;
    }
    default: {
      QualSet out;
      if (n->left()) {
        for (const std::string& r : AvailableVids(n->left())) out.insert(r);
      }
      if (n->right()) {
        for (const std::string& r : AvailableVids(n->right())) out.insert(r);
      }
      return out;
    }
  }
}

// Base relations that may appear null-padded in the tree's output (the
// null-supplied operand side of every outer join, both sides of a FOJ,
// and everything a generalized selection may pad).
QualSet NullableRels(const NodePtr& n) {
  QualSet out;
  switch (n->kind()) {
    case OpKind::kLeaf:
      return out;
    case OpKind::kLeftOuterJoin:
    case OpKind::kRightOuterJoin:
    case OpKind::kFullOuterJoin:
    case OpKind::kMgoj: {
      QualSet l = NullableRels(n->left());
      QualSet r = NullableRels(n->right());
      out.insert(l.begin(), l.end());
      out.insert(r.begin(), r.end());
      if (n->kind() != OpKind::kLeftOuterJoin) {
        for (const std::string& rel : n->left()->BaseRels()) out.insert(rel);
      }
      if (n->kind() != OpKind::kRightOuterJoin) {
        for (const std::string& rel : n->right()->BaseRels()) out.insert(rel);
      }
      return out;
    }
    case OpKind::kGeneralizedSelection:
      for (const std::string& rel : n->BaseRels()) out.insert(rel);
      return out;
    default: {
      if (n->left()) {
        QualSet l = NullableRels(n->left());
        out.insert(l.begin(), l.end());
      }
      if (n->right()) {
        QualSet r = NullableRels(n->right());
        out.insert(r.begin(), r.end());
      }
      return out;
    }
  }
}

// Relation qualifiers referenced by atom.
QualSet AtomQuals(const Atom& a) {
  QualSet q;
  for (const std::string& r : a.RelNames()) q.insert(r);
  return q;
}

bool Intersects(const QualSet& a, const QualSet& b) {
  for (const std::string& s : a) {
    if (b.count(s)) return true;
  }
  return false;
}

bool SubsetOf(const QualSet& a, const QualSet& b) {
  for (const std::string& s : a) {
    if (!b.count(s)) return false;
  }
  return true;
}

// Materializes a side back into a single opaque expression (fallback when
// its wrappers cannot cross the operator above).
StatusOr<NodePtr> Materialize(const Side& side, const Catalog& catalog) {
  NormalizedQuery nq;
  nq.join_tree = side.tree;
  nq.wrappers = side.wrappers;
  nq.drop_cols = side.drop_cols;
  return ApplyWrappers(nq, side.tree, catalog);
}

enum class SideRole { kPreserved, kNullSupplied, kBothPreserved };

SideRole RoleOf(OpKind k, bool is_left) {
  switch (k) {
    case OpKind::kInnerJoin:
      return SideRole::kNullSupplied;  // unmatched rows die on both sides
    case OpKind::kLeftOuterJoin:
      return is_left ? SideRole::kPreserved : SideRole::kNullSupplied;
    case OpKind::kRightOuterJoin:
      return is_left ? SideRole::kNullSupplied : SideRole::kPreserved;
    case OpKind::kFullOuterJoin:
      return SideRole::kBothPreserved;
    default:
      return SideRole::kNullSupplied;
  }
}

// Crosses one generalized-selection wrapper (zero groups = selection) over
// the operator. `p_side_refs` are the operator predicate's references into
// this side; `other_quals` the other side's qualifier set. Returns false
// if unsupported (caller falls back to materialization).
bool CrossGs(Wrapper* w, OpKind op, SideRole role, const QualSet& p_side_refs,
             const QualSet& other_quals) {
  // Does the operator predicate stay evaluable on a group's resurrections?
  // Yes iff every predicate reference into this side lies inside that
  // group (padding outside the group makes atoms UNKNOWN). No references
  // at all -- a TRUE / other-side-only predicate -- is trivially
  // evaluable: resurrections then match the other side's rows exactly as
  // real rows do, so the group must extend with the other side rather
  // than surviving with it padded.
  std::vector<exec::PreservedGroup> out;
  bool any_evaluable = false;
  for (const exec::PreservedGroup& g : w->groups) {
    QualSet gq(g.begin(), g.end());
    bool evaluable = SubsetOf(p_side_refs, gq);
    if (evaluable) {
      any_evaluable = true;
      exec::PreservedGroup g2 = g;
      g2.insert(other_quals.begin(), other_quals.end());
      out.push_back(std::move(g2));
      continue;
    }
    switch (role) {
      case SideRole::kPreserved:
      case SideRole::kBothPreserved:
        out.push_back(g);  // resurrections survive padded
        break;
      case SideRole::kNullSupplied:
        break;  // resurrections die in the join above: drop the group
    }
  }
  // The other side's rows matched only by killed tuples must survive when
  // the operator preserves them.
  if (!any_evaluable &&
      (role == SideRole::kNullSupplied ? op != OpKind::kInnerJoin : false)) {
    // ROJ seen from its null side: other side is preserved.
    out.push_back(exec::PreservedGroup(other_quals.begin(),
                                       other_quals.end()));
  }
  if (!any_evaluable && role == SideRole::kBothPreserved) {
    out.push_back(exec::PreservedGroup(other_quals.begin(),
                                       other_quals.end()));
  }
  w->groups = std::move(out);
  return true;
}

// Sinks selection conjuncts as deep into `n` as the local rules allow,
// so a filter runs before the joins above it instead of after all of
// them. Each step is the identity sigma_p(A op B) = sigma_p(A) op B, which
// holds whatever p's null tolerance when A is an inner join's input or an
// outer join's preserved input:
//   * a nested Select merges its conjuncts into the ones being pushed;
//   * inner join: a conjunct over one child's output enters that child; a
//     conjunct spanning both is ANDed into the join predicate (a hyperedge
//     atom the enumerator places);
//   * LOJ / ROJ: only into the preserved child;
//   * everything else (FOJ, GroupBy, Project, GS, MGOJ, semi/anti, Sort)
//     stops the push, as do constant-only conjuncts.
// Containment is tested against output qualifiers (OutputQuals), so a
// conjunct on a view's aggregate never sinks below its view. A conjunct
// that cannot move below `n` is appended to `*stuck`; the caller keeps it
// at its own level. SimplifyOuterJoins is what lets null-intolerant WHERE
// conjuncts reach their leaves: it has already turned every LOJ whose
// padded side they reject into an inner join.
NodePtr SinkConjuncts(const NodePtr& n, std::vector<Atom> atoms,
                      std::vector<Atom>* stuck) {
  std::vector<Atom> movable;
  for (Atom& a : atoms) {
    (a.RelNames().empty() ? *stuck : movable).push_back(std::move(a));
  }
  if (movable.empty()) return n;
  switch (n->kind()) {
    case OpKind::kLeaf:
      return Node::Select(n, Predicate(std::move(movable)));
    case OpKind::kSelect: {
      std::vector<Atom> all = n->pred().atoms();
      all.insert(all.end(), movable.begin(), movable.end());
      if (n->left()->kind() == OpKind::kLeaf) {
        return Node::WithPred(n, Predicate(std::move(all)));
      }
      std::vector<Atom> here;
      NodePtr child = SinkConjuncts(n->left(), std::move(all), &here);
      return here.empty() ? child : Node::Select(child, Predicate(here));
    }
    case OpKind::kInnerJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kRightOuterJoin: {
      const bool into_left = n->kind() != OpKind::kRightOuterJoin;
      const bool into_right = n->kind() != OpKind::kLeftOuterJoin;
      QualSet lq = OutputQuals(n->left());
      QualSet rq = OutputQuals(n->right());
      QualSet both = lq;
      both.insert(rq.begin(), rq.end());
      std::vector<Atom> to_left, to_right;
      Predicate pred = n->pred();
      for (Atom& a : movable) {
        QualSet q = AtomQuals(a);
        if (into_left && SubsetOf(q, lq)) {
          to_left.push_back(std::move(a));
        } else if (into_right && SubsetOf(q, rq)) {
          to_right.push_back(std::move(a));
        } else if (n->kind() == OpKind::kInnerJoin && SubsetOf(q, both)) {
          pred.AddAtom(std::move(a));
        } else {
          stuck->push_back(std::move(a));
        }
      }
      NodePtr out = Node::WithChildren(
          n, SinkConjuncts(n->left(), std::move(to_left), stuck),
          SinkConjuncts(n->right(), std::move(to_right), stuck));
      return pred.NumAtoms() == n->pred().NumAtoms()
                 ? out
                 : Node::WithPred(out, std::move(pred));
    }
    default:
      stuck->insert(stuck->end(), movable.begin(), movable.end());
      return n;
  }
}

struct NormalizeContext {
  const Catalog& catalog;
  int next_aux = 0;
  ResourceBudget* budget = nullptr;  // optional, not owned
};

StatusOr<Side> Normalize(const NodePtr& node, NormalizeContext* ctx);

// Crosses all wrappers of `side` over operator `op`; on failure, falls
// back to materializing the side as an opaque expression. `pred` is the
// operator's predicate; atoms referencing a crossing group-by's aggregate
// outputs are split off into that group-by's deferred GS. `pred` is
// updated in place (deferred atoms removed).
StatusOr<Side> CrossSide(Side side, OpKind op, bool is_left, Predicate* pred,
                         const Side& other, NormalizeContext* ctx) {
  if (side.wrappers.empty()) return side;
  SideRole role = RoleOf(op, is_left);
  QualSet other_quals = other.FinalQuals();
  QualSet side_quals_now = side.tree_quals;

  std::vector<Wrapper> crossed;
  // Wrappers created AT this operator (deferred conjuncts of `pred`). They
  // represent work the original evaluates at `op`, i.e. ABOVE every wrapper
  // already in the list, so they append only after the whole list has
  // crossed -- inserting them mid-list would slide an upper operator's
  // filter below a lower operator's compensating GS, letting resurrected
  // rows escape a filter the original applies to them.
  std::vector<Wrapper> created_here;
  bool ok = true;
  for (size_t wi = 0; wi < side.wrappers.size() && ok; ++wi) {
    Wrapper w = side.wrappers[wi];
    switch (w.kind) {
      case Wrapper::Kind::kGeneralizedSelection: {
        QualSet p_side_refs;
        for (const Atom& a : pred->atoms()) {
          for (const std::string& q : AtomQuals(a)) {
            if (side.FinalQuals().count(q)) p_side_refs.insert(q);
          }
        }
        ok = CrossGs(&w, op, role, p_side_refs, other_quals);
        if (ok) crossed.push_back(std::move(w));
        break;
      }
      case Wrapper::Kind::kGroupBy: {
        if (role == SideRole::kBothPreserved) {
          ok = false;  // FOJ over an aggregation view: not mergeable
          break;
        }
        // Split the operator predicate into conjuncts referencing this
        // group-by's aggregate outputs (deferred) and the rest (kept).
        QualSet agg_quals;
        for (const exec::AggSpec& a : w.spec.aggs) agg_quals.insert(a.out_rel);
        std::vector<Atom> kept, deferred;
        for (const Atom& a : pred->atoms()) {
          if (Intersects(AtomQuals(a), agg_quals)) {
            deferred.push_back(a);
          } else {
            kept.push_back(a);
          }
        }
        // kept may be empty: the operator becomes a cartesian (TRUE-
        // predicate) join/outer join -- exactly what the paper's Query 1
        // requires when the outer join's only conjunct references COUNT.
        // Extend the grouping with the other side's columns and row ids.
        auto other_schema = InferSchema(other.tree, ctx->catalog);
        if (!other_schema.ok()) {
          ok = false;
          break;
        }
        for (const Attribute& a : other_schema->attrs()) {
          w.spec.group_cols.push_back(a);
        }
        for (const std::string& r : AvailableVids(other.tree)) {
          w.spec.group_vid_rels.push_back(r);
        }
        // Pulled group-by: rows are per (group, other-side) CELL; the
        // compensation above must deduplicate resurrections by group
        // VALUE, so the per-group synthetic row id must not leak in.
        w.spec.synthetic_vid = false;

        Wrapper gs;
        gs.kind = Wrapper::Kind::kGeneralizedSelection;
        gs.pred = Predicate(deferred);
        if (role == SideRole::kPreserved) {
          // The aggregate value rides with the preserved side. The pulled
          // group-by keeps no row id for this side (resurrections dedup by
          // value; synthetic_vid is off), so a REAL group that is all-NULL
          // on its group columns and aggregates would look exactly like
          // padding once an operator above null-supplies this side (a FOJ
          // placed over it by enumeration, or the GS's own compensation).
          // Witness real groups with a constant presence flag that rides
          // in the preserved group and is dropped at the root.
          std::string aux_rel = "#flag" + std::to_string(ctx->next_aux);
          std::string aux_name =
              "present" + std::to_string(ctx->next_aux++);
          exec::AggSpec aux;
          aux.func = exec::AggFunc::kGroupFlag;
          aux.out_rel = aux_rel;
          aux.out_name = aux_name;
          w.spec.aggs.push_back(aux);
          side.drop_cols.push_back(Attribute{aux_rel, aux_name});
          exec::PreservedGroup g(side_quals_now.begin(),
                                 side_quals_now.end());
          g.insert(agg_quals.begin(), agg_quals.end());
          g.insert(aux_rel);
          gs.groups.push_back(std::move(g));
        } else if (op != OpKind::kInnerJoin) {
          // Null-supplied side of an outer join: groups formed purely by
          // padding are phantoms; guard with a presence count and preserve
          // the other (outer-preserved) side.
          std::string aux_rel = "#aux";
          std::string aux_name =
              "present" + std::to_string(ctx->next_aux++);
          exec::AggSpec aux;
          aux.func = exec::AggFunc::kCountPresence;
          QualSet side_vids = AvailableVids(side.tree);
          if (side_vids.empty()) {
            ok = false;  // no surviving row id to witness presence
            break;
          }
          aux.presence_rel = *side_vids.begin();
          aux.out_rel = aux_rel;
          aux.out_name = aux_name;
          w.spec.aggs.push_back(aux);
          gs.pred.AddAtom(MakeConstAtom(aux_rel, aux_name, CmpOp::kGt,
                                        Value::Int(0)));
          gs.groups.push_back(exec::PreservedGroup(other_quals.begin(),
                                                   other_quals.end()));
          side.drop_cols.push_back(Attribute{aux_rel, aux_name});
        }
        // Inner join: a plain (zero-group) selection on the deferred
        // conjuncts suffices; skip the GS if there are none.
        *pred = Predicate(kept);
        crossed.push_back(std::move(w));
        if (!gs.pred.IsTrue()) created_here.push_back(std::move(gs));
        break;
      }
    }
  }

  if (!ok) {
    GSOPT_ASSIGN_OR_RETURN(NodePtr opaque, Materialize(side, ctx->catalog));
    Side s;
    s.tree = opaque;
    s.tree_quals = OutputQuals(opaque);
    return s;
  }
  for (Wrapper& w : created_here) crossed.push_back(std::move(w));
  side.wrappers = std::move(crossed);
  return side;
}

StatusOr<Side> Normalize(const NodePtr& node, NormalizeContext* ctx) {
  if (ctx->budget != nullptr) {
    GSOPT_RETURN_IF_ERROR(ctx->budget->CheckDeadline("normalize"));
  }
  Side out;
  switch (node->kind()) {
    case OpKind::kLeaf:
      out.tree = node;
      out.tree_quals = {node->table()};
      return out;
    case OpKind::kSelect: {
      // A filter directly on a base relation stays with the leaf (the
      // enumerator reorders the filtered unit). Any other filter first
      // sinks its conjuncts; only those that cannot move hoist.
      if (node->left()->kind() == OpKind::kLeaf) {
        out.tree = node;
        out.tree_quals = {node->left()->table()};
        return out;
      }
      std::vector<Atom> rest;
      NodePtr sunk = SinkConjuncts(node->left(), node->pred().atoms(), &rest);
      GSOPT_ASSIGN_OR_RETURN(Side child, Normalize(sunk, ctx));
      if (rest.empty()) return child;
      Wrapper w;
      w.kind = Wrapper::Kind::kGeneralizedSelection;
      w.pred = Predicate(std::move(rest));
      child.wrappers.push_back(std::move(w));
      return child;
    }
    case OpKind::kGeneralizedSelection: {
      GSOPT_ASSIGN_OR_RETURN(Side child, Normalize(node->left(), ctx));
      Wrapper w;
      w.kind = Wrapper::Kind::kGeneralizedSelection;
      w.pred = node->pred();
      w.groups = node->groups();
      child.wrappers.push_back(std::move(w));
      return child;
    }
    case OpKind::kGroupBy: {
      GSOPT_ASSIGN_OR_RETURN(Side child, Normalize(node->left(), ctx));
      // Pull-up is only sound when the aggregate inputs cannot be null-
      // padded inside the view: reordering compensations resurrect only
      // preserved parts, so values from a null-supplied side would vanish
      // from the aggregate's input (and distort COUNT/SUM). Otherwise the
      // view stays an opaque unit.
      QualSet nullable = NullableRels(child.tree);
      for (const exec::AggSpec& a : node->groupby().aggs) {
        if (a.input == nullptr) continue;
        std::vector<Attribute> cols;
        a.input->CollectColumns(&cols);
        for (const Attribute& col : cols) {
          if (nullable.count(col.rel)) {
            GSOPT_ASSIGN_OR_RETURN(NodePtr opaque_child,
                                   Materialize(child, ctx->catalog));
            out.tree = Node::WithChildren(node, opaque_child, nullptr);
            out.tree_quals = OutputQuals(out.tree);
            return out;
          }
        }
      }
      Wrapper w;
      w.kind = Wrapper::Kind::kGroupBy;
      w.spec = node->groupby();
      child.wrappers.push_back(std::move(w));
      return child;
    }
    case OpKind::kProject: {
      // Projection mid-query: keep the subtree opaque (column pruning is a
      // physical concern; reordering below a projection is future work).
      out.tree = node;
      out.tree_quals = OutputQuals(node);
      return out;
    }
    case OpKind::kInnerJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kRightOuterJoin:
    case OpKind::kFullOuterJoin: {
      GSOPT_ASSIGN_OR_RETURN(Side l, Normalize(node->left(), ctx));
      GSOPT_ASSIGN_OR_RETURN(Side r, Normalize(node->right(), ctx));
      // At most one side may cross a group-by at a node (the second would
      // need the first's not-yet-applied outputs in its group key).
      bool l_has_gp = false, r_has_gp = false;
      for (const Wrapper& w : l.wrappers) {
        if (w.kind == Wrapper::Kind::kGroupBy) l_has_gp = true;
      }
      for (const Wrapper& w : r.wrappers) {
        if (w.kind == Wrapper::Kind::kGroupBy) r_has_gp = true;
      }
      if (l_has_gp && r_has_gp) {
        GSOPT_ASSIGN_OR_RETURN(NodePtr opaque, Materialize(r, ctx->catalog));
        Side s;
        s.tree = opaque;
        s.tree_quals = OutputQuals(opaque);
        r = std::move(s);
      }
      Predicate pred = node->pred();
      GSOPT_ASSIGN_OR_RETURN(
          Side lc, CrossSide(std::move(l), node->kind(), true, &pred, r, ctx));
      GSOPT_ASSIGN_OR_RETURN(
          Side rc,
          CrossSide(std::move(r), node->kind(), false, &pred, lc, ctx));
      out.tree = Node::WithPred(Node::WithChildren(node, lc.tree, rc.tree),
                                std::move(pred));
      out.tree_quals = lc.tree_quals;
      out.tree_quals.insert(rc.tree_quals.begin(), rc.tree_quals.end());
      out.wrappers = std::move(lc.wrappers);
      out.wrappers.insert(out.wrappers.end(), rc.wrappers.begin(),
                          rc.wrappers.end());
      out.drop_cols = std::move(lc.drop_cols);
      out.drop_cols.insert(out.drop_cols.end(), rc.drop_cols.begin(),
                           rc.drop_cols.end());
      return out;
    }
    default:
      // MGOJ / anti / semi joins arrive only from already-planned trees;
      // treat as opaque.
      out.tree = node;
      out.tree_quals = OutputQuals(node);
      return out;
  }
}

}  // namespace

std::string Wrapper::ToString() const {
  switch (kind) {
    case Kind::kGroupBy:
      return spec.ToString();
    case Kind::kGeneralizedSelection: {
      std::string s = "GS[" + pred.ToString() + ";";
      for (const auto& g : groups) {
        s += " {";
        bool first = true;
        for (const std::string& r : g) {
          if (!first) s += " ";
          s += r;
          first = false;
        }
        s += "}";
      }
      return s + "]";
    }
  }
  return "?";
}

StatusOr<NormalizedQuery> NormalizeForReordering(const NodePtr& query,
                                                 const Catalog& catalog,
                                                 ResourceBudget* budget) {
  if (query == nullptr) return Status::InvalidArgument("null query");
  NormalizeContext ctx{catalog, 0, budget};
  GSOPT_ASSIGN_OR_RETURN(Side side, Normalize(query, &ctx));
  NormalizedQuery nq;
  nq.join_tree = side.tree;
  nq.wrappers = std::move(side.wrappers);
  nq.drop_cols = std::move(side.drop_cols);
  return nq;
}

StatusOr<NodePtr> ApplyWrappers(const NormalizedQuery& nq, NodePtr tree,
                                const Catalog& catalog) {
  NodePtr out = std::move(tree);
  for (const Wrapper& w : nq.wrappers) {
    switch (w.kind) {
      case Wrapper::Kind::kGroupBy:
        out = Node::GroupBy(out, w.spec);
        break;
      case Wrapper::Kind::kGeneralizedSelection:
        if (w.groups.empty()) {
          out = Node::Select(out, w.pred);
        } else {
          out = Node::GeneralizedSelection(out, w.pred, w.groups);
        }
        break;
    }
  }
  if (!nq.drop_cols.empty()) {
    GSOPT_ASSIGN_OR_RETURN(Schema schema, InferSchema(out, catalog));
    std::vector<Attribute> keep;
    for (const Attribute& a : schema.attrs()) {
      bool dropped = false;
      for (const Attribute& d : nq.drop_cols) {
        if (a == d) dropped = true;
      }
      if (!dropped) keep.push_back(a);
    }
    out = Node::Project(out, std::move(keep));
  }
  return out;
}

}  // namespace gsopt
