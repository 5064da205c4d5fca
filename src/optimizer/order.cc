#include "optimizer/order.h"

#include <cstddef>

namespace gsopt {

namespace {

// Bottom-up: each kSort whose rewritten input already satisfies its spec
// (OutputSatisfiesOrder) is dropped.
NodePtr Rewrite(const NodePtr& node, const Statistics& stats, bool assume,
                OrderPassCounters* c) {
  if (node->kind() == OpKind::kLeaf) return node;
  NodePtr l = Rewrite(node->left(), stats, assume, c);
  NodePtr r = node->right() != nullptr
                  ? Rewrite(node->right(), stats, assume, c)
                  : nullptr;
  if (node->kind() == OpKind::kSort) {
    if (assume && OutputSatisfiesOrder(l, node->sort_spec(), stats)) {
      ++c->sort_enforcers_avoided;
      return l;
    }
    ++c->sort_enforcers_placed;
  }
  return Node::WithChildren(node, l, r);
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
    default:
      return false;
  }
}

NodePtr ApplyOrderAwarePass(const NodePtr& root, const Statistics& stats,
                            bool assume_ordered_exec,
                            OrderPassCounters* counters) {
  if (root == nullptr) return root;
  OrderPassCounters local;
  return Rewrite(root, stats, assume_ordered_exec,
                 counters != nullptr ? counters : &local);
}

}  // namespace gsopt
