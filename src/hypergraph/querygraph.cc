#include "hypergraph/querygraph.h"

#include <vector>

#include "algebra/schema_infer.h"

namespace gsopt {

namespace {

struct Builder {
  const Catalog& catalog;
  QueryGraph* out;
  int unit_counter = 0;

  StatusOr<RelSet> AddLeaf(const NodePtr& node) {
    if (node->kind() == OpKind::kLeaf) {
      int id = out->hypergraph.AddRelation(node->table());
      out->leaf_exprs[node->table()] = node;
      return RelSet::Single(id);
    }
    if (node->kind() == OpKind::kSelect &&
        node->left()->kind() == OpKind::kLeaf) {
      // Filtered base relation: single-qualifier unit carrying the filter.
      const std::string& table = node->left()->table();
      int id = out->hypergraph.AddRelation(table);
      out->leaf_exprs[table] = node;
      return RelSet::Single(id);
    }
    // Opaque unit: qualifiers = output column qualifiers.
    GSOPT_ASSIGN_OR_RETURN(Schema schema, InferSchema(node, catalog));
    std::vector<std::string> quals;
    for (const Attribute& a : schema.attrs()) {
      bool seen = false;
      for (const std::string& q : quals) {
        if (q == a.rel) seen = true;
      }
      if (!seen) quals.push_back(a.rel);
    }
    if (quals.empty()) {
      return Status::InvalidArgument("unit with no output qualifiers");
    }
    std::string name = "#unit" + std::to_string(unit_counter++);
    int id = out->hypergraph.AddUnit(name, quals);
    out->leaf_exprs[name] = node;
    return RelSet::Single(id);
  }

  // Single bottom-up pass: a node's predicate only references relations in
  // its subtree, which are registered before the edge is added.
  StatusOr<RelSet> AddEdges(const NodePtr& node) {
    if (!IsJoinLike(node->kind())) return AddLeaf(node);
    GSOPT_ASSIGN_OR_RETURN(RelSet l, AddEdges(node->left()));
    GSOPT_ASSIGN_OR_RETURN(RelSet r, AddEdges(node->right()));

    if (!node->pred().IsNullIntolerant()) {
      // Paper footnote 2: reordering assumes null in-tolerant predicates.
      // A tolerant conjunct (IS NULL) pins the operator; the caller falls
      // back to the as-written plan.
      return Status::InvalidArgument(
          "null-tolerant join predicate is not reorderable: " +
          node->pred().ToString());
    }
    RelSet refs;
    for (const std::string& rel : node->pred().RelNames()) {
      int id = out->hypergraph.RelId(rel);
      if (id < 0) {
        return Status::InvalidArgument(
            "predicate references unknown relation/qualifier " + rel);
      }
      refs.Add(id);
    }
    RelSet refs_l = refs.Intersect(l);
    RelSet refs_r = refs.Intersect(r);
    if (node->pred().IsTrue()) {
      // Cartesian operator (e.g. deferred-conjunct outer join): the edge
      // spans the full operand sides.
      refs_l = l;
      refs_r = r;
    } else if (refs_l.Empty() || refs_r.Empty()) {
      return Status::InvalidArgument(
          "join predicate must reference both operand sides: " +
          node->pred().ToString());
    }
    EdgeKind kind = EdgeKind::kUndirected;
    RelSet v1 = refs_l, v2 = refs_r;
    RelSet b1 = l, b2 = r;
    switch (node->kind()) {
      case OpKind::kInnerJoin:
        break;
      case OpKind::kLeftOuterJoin:
        kind = EdgeKind::kDirected;
        break;
      case OpKind::kRightOuterJoin:
        kind = EdgeKind::kDirected;
        v1 = refs_r;
        v2 = refs_l;
        b1 = r;
        b2 = l;
        break;
      case OpKind::kFullOuterJoin:
        kind = EdgeKind::kBidirected;
        break;
      default:
        return Status::Internal("unexpected operator");
    }
    GSOPT_ASSIGN_OR_RETURN(
        int id, out->hypergraph.AddEdge(kind, v1, v2, node->pred(), b1, b2));
    (void)id;
    return l.Union(r);
  }
};

}  // namespace

StatusOr<QueryGraph> BuildQueryGraph(const NodePtr& join_tree,
                                     const Catalog& catalog) {
  if (join_tree == nullptr) return Status::InvalidArgument("null tree");
  QueryGraph qg;
  Builder b{catalog, &qg};
  GSOPT_ASSIGN_OR_RETURN(RelSet all, b.AddEdges(join_tree));
  (void)all;
  return qg;
}

}  // namespace gsopt
