#include "optimizer/order.h"

#include <cstddef>
#include <vector>

#include "algebra/schema_infer.h"

namespace gsopt {

namespace {

// The columns a merge join sorts its left / right input by: the kernels'
// own key split (exec::SplitJoinPredicate, sides tested on output
// qualifiers), cut at the first key that is not a plain column on both
// sides. The merge core sorts by every key in this order, so an order
// claim on a prefix of the cut list holds; past an arithmetic key it
// does not.
struct MergeOrder {
  std::vector<Attribute> left, right;
};

MergeOrder MergeKeys(const NodePtr& join) {
  auto over = [](const NodePtr& side) {
    return [quals = OutputQuals(side)](const Scalar& s) {
      std::vector<Attribute> cols;
      s.CollectColumns(&cols);
      for (const Attribute& c : cols) {
        if (quals.count(c.rel) == 0) return false;
      }
      return true;
    };
  };
  exec::HashPlan plan = exec::SplitJoinPredicate(
      join->pred(), over(join->left()), over(join->right()));
  MergeOrder keys;
  for (size_t i = 0; i < plan.a_keys.size(); ++i) {
    const Scalar& a = *plan.a_keys[i];
    const Scalar& b = *plan.b_keys[i];
    if (a.kind() != Scalar::Kind::kColumn ||
        b.kind() != Scalar::Kind::kColumn) {
      break;
    }
    keys.left.push_back(Attribute{a.rel(), a.name()});
    keys.right.push_back(Attribute{b.rel(), b.name()});
  }
  return keys;
}

// Does `req` match a prefix of the merge join's left-key ASC order?
bool ReqIsLeftKeyPrefix(const exec::SortSpec& req,
                        const std::vector<Attribute>& left_keys) {
  if (left_keys.empty() || req.size() > left_keys.size()) return false;
  for (size_t i = 0; i < req.size(); ++i) {
    if (req[i].desc || !(req[i].attr == left_keys[i])) return false;
  }
  return true;
}

NodePtr Rewrite(const NodePtr& node, const exec::SortSpec& req,
                const Statistics& stats, bool assume, OrderPassCounters* c) {
  if (node->kind() == OpKind::kLeaf) return node;
  if (node->kind() == OpKind::kSort) {
    // The enforcer's own spec overrides any requirement from above (a
    // sort re-establishes order wholesale).
    NodePtr child = Rewrite(node->left(), node->sort_spec(), stats, assume, c);
    if (assume && OutputSatisfiesOrder(child, node->sort_spec(), stats)) {
      ++c->sort_enforcers_avoided;
      return child;
    }
    ++c->sort_enforcers_placed;
    return Node::WithChildren(node, child, nullptr);
  }
  // Selections and plain projections preserve row order, so they forward
  // the requirement; a renaming projection changes attribute identities
  // and forwards none. Hash-based re-grouping (GS, group-by) destroys
  // order, and joins claim order themselves rather than forward it (outer
  // flavors pad unmatched rows after the matched stream, semi / anti
  // filter by hash, MGOJ compensates).
  exec::SortSpec fwd;
  if (node->kind() == OpKind::kSelect ||
      (node->kind() == OpKind::kProject &&
       node->projection_out() == node->projection())) {
    fwd = req;
  }
  NodePtr l = Rewrite(node->left(), fwd, stats, assume, c);
  NodePtr r = node->right() != nullptr
                  ? Rewrite(node->right(), {}, stats, assume, c)
                  : nullptr;
  NodePtr out = Node::WithChildren(node, l, r);
  if (node->kind() != OpKind::kInnerJoin) return out;
  MergeOrder keys = MergeKeys(out);
  if (keys.left.empty()) return out;
  // Merge pays when an input arrives presorted by its primary join key
  // (the sort phase short-circuits) or when, under ordered execution, the
  // merge's output order discharges the requirement from above and saves
  // an enforcer.
  bool left_sorted =
      OutputSatisfiesOrder(l, exec::SortSpec{{keys.left[0], false}}, stats);
  bool right_sorted =
      OutputSatisfiesOrder(r, exec::SortSpec{{keys.right[0], false}}, stats);
  bool serves_req =
      assume && !req.empty() && ReqIsLeftKeyPrefix(req, keys.left);
  if (left_sorted || right_sorted || serves_req) {
    out = Node::WithMergeJoin(out);
    ++c->merge_joins_chosen;
  }
  return out;
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
      return ReqIsLeftKeyPrefix(req, MergeKeys(node).left);
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
  NodePtr out = Node::WithChildren(root, StampMergeJoins(root->left()),
                                   StampMergeJoins(root->right()));
  return IsBinary(out->kind()) ? Node::WithMergeJoin(out) : out;
}

}  // namespace gsopt
