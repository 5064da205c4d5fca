#include "optimizer/order.h"

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gsopt {

namespace {

// Column = column equi-join conjuncts of a binary node, oriented so .first
// sits in the left input and .second in the right. The atom order matches
// the exec layer's plan extraction (both walk pred().atoms() in sequence),
// so keys[0].first is the primary key the merge join's output streams by.
std::vector<std::pair<Attribute, Attribute>> EquiKeys(const NodePtr& node) {
  std::set<std::string> lrels = node->left()->BaseRels();
  std::set<std::string> rrels = node->right()->BaseRels();
  std::vector<std::pair<Attribute, Attribute>> keys;
  for (const Atom& a : node->pred().atoms()) {
    if (a.kind != Atom::Kind::kCompare || a.op != CmpOp::kEq) continue;
    if (a.lhs->kind() != Scalar::Kind::kColumn ||
        a.rhs->kind() != Scalar::Kind::kColumn) {
      continue;
    }
    Attribute l{a.lhs->rel(), a.lhs->name()};
    Attribute r{a.rhs->rel(), a.rhs->name()};
    if (lrels.count(l.rel) && rrels.count(r.rel)) {
      keys.emplace_back(std::move(l), std::move(r));
    } else if (lrels.count(r.rel) && rrels.count(l.rel)) {
      keys.emplace_back(std::move(r), std::move(l));
    }
  }
  return keys;
}

// Does `req` match a prefix of the merge join's left-key ASC order?
bool ReqIsLeftKeyPrefix(const exec::SortSpec& req,
                        const std::vector<std::pair<Attribute, Attribute>>&
                            keys) {
  if (keys.empty() || req.size() > keys.size()) return false;
  for (size_t i = 0; i < req.size(); ++i) {
    if (req[i].desc || !(req[i].attr == keys[i].first)) return false;
  }
  return true;
}

// Rebuilds `node` over rewritten children; returns `node` itself when
// nothing changed so shared subtrees stay shared.
NodePtr WithChildren(const NodePtr& node, const NodePtr& l, const NodePtr& r) {
  if (l == node->left() && (node->right() == nullptr || r == node->right())) {
    return node;
  }
  switch (node->kind()) {
    case OpKind::kSelect:
      return Node::Select(l, node->pred());
    case OpKind::kGeneralizedSelection:
      return Node::GeneralizedSelection(l, node->pred(), node->groups());
    case OpKind::kProject:
      return node->projection_out() != node->projection()
                 ? Node::ProjectAs(l, node->projection(),
                                   node->projection_out())
                 : Node::Project(l, node->projection());
    case OpKind::kGroupBy:
      return Node::GroupBy(l, node->groupby());
    case OpKind::kSort:
      return Node::Sort(l, node->sort_spec());
    case OpKind::kMgoj:
      return Node::Mgoj(l, r, node->pred(), node->groups());
    default:
      if (node->right() != nullptr) {
        return Node::Binary(node->kind(), l, r, node->pred());
      }
      return node;
  }
}

NodePtr Rewrite(const NodePtr& node, const exec::SortSpec& req,
                const Statistics& stats, bool assume, OrderPassCounters* c) {
  switch (node->kind()) {
    case OpKind::kLeaf:
      return node;
    case OpKind::kSort: {
      // The enforcer's own spec overrides any requirement from above (a
      // sort re-establishes order wholesale).
      NodePtr child =
          Rewrite(node->left(), node->sort_spec(), stats, assume, c);
      if (assume && OutputSatisfiesOrder(child, node->sort_spec(), stats)) {
        ++c->sort_enforcers_avoided;
        return child;
      }
      ++c->sort_enforcers_placed;
      return WithChildren(node, child, nullptr);
    }
    case OpKind::kSelect:
    case OpKind::kProject: {
      // Row-order preserving: forward the requirement -- except through a
      // renaming projection, whose output attribute identities differ from
      // the child's.
      exec::SortSpec fwd = req;
      if (node->kind() == OpKind::kProject &&
          node->projection_out() != node->projection()) {
        fwd.clear();
      }
      return WithChildren(node, Rewrite(node->left(), fwd, stats, assume, c),
                          nullptr);
    }
    case OpKind::kGeneralizedSelection:
    case OpKind::kGroupBy: {
      // Hash-based re-grouping destroys order; no requirement survives.
      return WithChildren(node, Rewrite(node->left(), {}, stats, assume, c),
                          nullptr);
    }
    case OpKind::kInnerJoin: {
      NodePtr l = Rewrite(node->left(), {}, stats, assume, c);
      NodePtr r = Rewrite(node->right(), {}, stats, assume, c);
      NodePtr out = WithChildren(node, l, r);
      auto keys = EquiKeys(out);
      if (!keys.empty()) {
        // Merge pays when an input arrives presorted by its primary join
        // key (the sort phase short-circuits) or when, under ordered
        // execution, the merge's output order discharges the requirement
        // from above and saves an enforcer.
        bool left_sorted = OutputSatisfiesOrder(
            l, exec::SortSpec{{keys[0].first, false}}, stats);
        bool right_sorted = OutputSatisfiesOrder(
            r, exec::SortSpec{{keys[0].second, false}}, stats);
        bool serves_req =
            assume && !req.empty() && ReqIsLeftKeyPrefix(req, keys);
        if (left_sorted || right_sorted || serves_req) {
          out = Node::WithMergeJoin(out);
          ++c->merge_joins_chosen;
        }
      }
      return out;
    }
    default: {
      // Outer flavors pad unmatched rows after the matched stream, semi /
      // anti filter by hash, MGOJ compensates: none claims or forwards
      // order, so children see no requirement.
      if (node->right() == nullptr) {
        return WithChildren(node, Rewrite(node->left(), {}, stats, assume, c),
                            nullptr);
      }
      NodePtr l = Rewrite(node->left(), {}, stats, assume, c);
      NodePtr r = Rewrite(node->right(), {}, stats, assume, c);
      return WithChildren(node, l, r);
    }
  }
}

}  // namespace

bool OutputSatisfiesOrder(const NodePtr& node, const exec::SortSpec& req,
                          const Statistics& stats) {
  if (req.empty()) return true;
  switch (node->kind()) {
    case OpKind::kLeaf:
      // Only single-column sortedness is tracked; a multi-key requirement
      // would additionally need first-key uniqueness.
      return req.size() == 1 && !req[0].desc &&
             req[0].attr.rel == node->table() &&
             stats.SortedAsc(node->table(), req[0].attr.name);
    case OpKind::kSelect:
      return OutputSatisfiesOrder(node->left(), req, stats);
    case OpKind::kSort: {
      const exec::SortSpec& spec = node->sort_spec();
      if (req.size() > spec.size()) return false;
      for (size_t i = 0; i < req.size(); ++i) {
        if (!(req[i] == spec[i])) return false;
      }
      return true;
    }
    case OpKind::kProject: {
      if (node->projection_out() != node->projection()) return false;
      for (const exec::SortKey& k : req) {
        bool found = false;
        for (const Attribute& a : node->projection()) {
          if (a == k.attr) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
      return OutputSatisfiesOrder(node->left(), req, stats);
    }
    case OpKind::kInnerJoin: {
      // A merge-stamped INNER join streams non-decreasing by its left key
      // list under CompareValuesTotal, so ASC holds. Outer flavors pad
      // unmatched rows at the end and claim nothing.
      if (!node->merge_join()) return false;
      return ReqIsLeftKeyPrefix(req, EquiKeys(node));
    }
    default:
      return false;
  }
}

NodePtr ApplyOrderAwarePass(const NodePtr& root, const Statistics& stats,
                            bool assume_ordered_exec,
                            OrderPassCounters* counters) {
  if (root == nullptr) return root;
  OrderPassCounters local;
  NodePtr out =
      Rewrite(root, {}, stats, assume_ordered_exec,
              counters != nullptr ? counters : &local);
  return out;
}

NodePtr StampMergeJoins(const NodePtr& root) {
  if (root == nullptr || root->kind() == OpKind::kLeaf) return root;
  NodePtr out = WithChildren(root, StampMergeJoins(root->left()),
                             StampMergeJoins(root->right()));
  return IsBinary(out->kind()) ? Node::WithMergeJoin(out) : out;
}

}  // namespace gsopt
