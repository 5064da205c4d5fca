#include "algebra/simplify.h"

#include <set>
#include <string>

namespace gsopt {

namespace {

using RelNameSet = std::set<std::string>;

bool IntersectsRels(const RelNameSet& nr, const NodePtr& node) {
  for (const std::string& rel : node->BaseRels()) {
    if (nr.count(rel)) return true;
  }
  return false;
}

RelNameSet Union(const RelNameSet& a, const RelNameSet& b) {
  RelNameSet out = a;
  out.insert(b.begin(), b.end());
  return out;
}

// nr: relations whose null-padded rows cannot reach the output because a
// null-intolerant predicate above references them.
NodePtr Simplify(const NodePtr& node, const RelNameSet& nr) {
  if (node->kind() == OpKind::kLeaf) return node;
  if (node->right() == nullptr) {
    // Unary operators: only the rejection set handed to the child differs.
    RelNameSet child_nr;
    switch (node->kind()) {
      case OpKind::kSelect:
        child_nr = Union(nr, node->pred().NullRejectedRels());
        break;
      case OpKind::kGeneralizedSelection: {
        // Preserved relations survive even when the GS predicate rejects
        // them, so only non-preserved referenced relations are
        // null-rejected.
        RelNameSet preserved;
        for (const auto& g : node->groups()) {
          preserved.insert(g.begin(), g.end());
        }
        child_nr = nr;
        for (const std::string& rel : node->pred().NullRejectedRels()) {
          if (!preserved.count(rel)) child_nr.insert(rel);
        }
        break;
      }
      case OpKind::kSort:
        // Sorting preserves rows 1:1, so null-rejection from above
        // transfers straight through.
        child_nr = nr;
        break;
      default:
        // Projection and group-by do not reject nulls; the child gets an
        // empty rejection set (aggregation re-shapes rows, so rejection
        // above does not transfer through soundly in general).
        break;
    }
    return Node::WithChildren(node, Simplify(node->left(), child_nr),
                              nullptr);
  }

  // Binary operators.
  OpKind kind = node->kind();
  const NodePtr& l = node->left();
  const NodePtr& r = node->right();

  // Degeneration can cascade at one node (FOJ -> LOJ -> inner when the
  // rejection set covers both sides), so iterate to a fixpoint here.
  bool changed = true;
  while (changed) {
    changed = false;
    if (kind == OpKind::kLeftOuterJoin && IntersectsRels(nr, r)) {
      kind = OpKind::kInnerJoin;
      changed = true;
    } else if (kind == OpKind::kRightOuterJoin && IntersectsRels(nr, l)) {
      kind = OpKind::kInnerJoin;
      changed = true;
    } else if (kind == OpKind::kFullOuterJoin) {
      bool reject_l = IntersectsRels(nr, l);
      bool reject_r = IntersectsRels(nr, r);
      if (reject_l && reject_r) {
        kind = OpKind::kInnerJoin;
        changed = true;
      } else if (reject_r) {
        // Rows padded on the RIGHT side's columns (= left-only rows) die,
        // so preserving the left side is useless: keep right preserved.
        kind = OpKind::kRightOuterJoin;
        changed = true;
      } else if (reject_l) {
        kind = OpKind::kLeftOuterJoin;
        changed = true;
      }
    }
  }

  RelNameSet pred_rels = node->pred().NullRejectedRels();
  RelNameSet nr_l, nr_r;
  switch (kind) {
    case OpKind::kInnerJoin:
    case OpKind::kSemiJoin:
      nr_l = Union(nr, pred_rels);
      nr_r = Union(nr, pred_rels);
      break;
    case OpKind::kLeftOuterJoin:
      // Preserved (left) rows failing the predicate survive padded; only
      // the null-supplying side's unmatched rows are dropped.
      nr_l = nr;
      nr_r = Union(nr, pred_rels);
      break;
    case OpKind::kRightOuterJoin:
      nr_l = Union(nr, pred_rels);
      nr_r = nr;
      break;
    case OpKind::kFullOuterJoin:
    case OpKind::kMgoj:
      nr_l = nr;
      nr_r = nr;
      break;
    case OpKind::kAntiJoin:
      // Anti join keeps UNMATCHED left rows: padded left rows survive, and
      // right rows never surface; no extra rejection.
      nr_l = nr;
      nr_r = {};
      break;
    default:
      nr_l = nr;
      nr_r = nr;
      break;
  }

  NodePtr nl = Simplify(l, nr_l);
  NodePtr nr_child = Simplify(r, nr_r);
  if (kind == node->kind()) return Node::WithChildren(node, nl, nr_child);
  return Node::Binary(kind, nl, nr_child, node->pred());
}

}  // namespace

NodePtr SimplifyOuterJoins(const NodePtr& query) {
  if (query == nullptr) return query;
  return Simplify(query, {});
}

bool IsSimpleQuery(const NodePtr& query) {
  return SimplifyOuterJoins(query) == query;
}

}  // namespace gsopt
