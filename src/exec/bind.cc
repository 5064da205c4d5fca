#include "exec/bind.h"

namespace gsopt::exec::internal {

BoundScalar::BoundScalar(const Scalar& s, const Schema& schema) {
  Bind(s, schema);
  Node& root = nodes_.back();
  if (root.kind == Node::Kind::kArith) return;
  col_ = root.col;
  constant_ = std::move(root.constant);
  nodes_.clear();
}

size_t BoundScalar::Bind(const Scalar& s, const Schema& schema) {
  Node n;
  switch (s.kind()) {
    case Scalar::Kind::kColumn:
      n.col = schema.Find(s.rel(), s.name());
      if (n.col >= 0) n.kind = Node::Kind::kColumn;
      break;
    case Scalar::Kind::kConst:
      n.constant = s.constant();
      break;
    case Scalar::Kind::kParam:
      break;  // an unsubstituted slot evaluates to NULL
    case Scalar::Kind::kArith: {
      const size_t mark = nodes_.size();
      const size_t l = Bind(*s.lhs(), schema);
      const size_t r = Bind(*s.rhs(), schema);
      if (nodes_[l].kind == Node::Kind::kConst &&
          nodes_[r].kind == Node::Kind::kConst) {
        n.constant = EvalArith(s.arith_op(), nodes_[l].constant,
                               nodes_[r].constant);
        nodes_.resize(mark);
      } else {
        n.kind = Node::Kind::kArith;
        n.op = s.arith_op();
        n.lhs = l;
        n.rhs = r;
      }
      break;
    }
  }
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

const Value& BoundScalar::RefNode(size_t n, const RowRef& row,
                                  Value* scratch) const {
  const Node& node = nodes_[n];
  switch (node.kind) {
    case Node::Kind::kColumn:
      return row[node.col];
    case Node::Kind::kConst:
      return node.constant;
    case Node::Kind::kArith: {
      Value l, r;
      *scratch = EvalArith(node.op, RefNode(node.lhs, row, &l),
                           RefNode(node.rhs, row, &r));
      return *scratch;
    }
  }
  return node.constant;
}

BoundPredicate::BoundPredicate(const Predicate& p, const Schema& schema) {
  for (const Atom& atom : p.atoms()) {
    BoundAtom ba;
    ba.kind = atom.kind;
    ba.op = atom.op;
    ba.lhs = BoundScalar(*atom.lhs, schema);
    if (atom.rhs != nullptr) ba.rhs = BoundScalar(*atom.rhs, schema);
    const Value* l = ba.lhs.constant();
    const Value* r = ba.rhs.constant();
    // Fold what no row can change: a NULL comparison operand is never
    // TRUE; a constant atom is decided now.
    if (atom.kind == Atom::Kind::kCompare) {
      if ((l != nullptr && l->is_null()) || (r != nullptr && r->is_null())) {
        never_ = true;
        continue;
      }
      if (l != nullptr && r != nullptr) {
        never_ = never_ || EvalCmp(atom.op, *l, *r) != Tri::kTrue;
        continue;
      }
    } else if (l != nullptr) {
      never_ = never_ || l->is_null() != (atom.kind == Atom::Kind::kIsNull);
      continue;
    }
    atoms_.push_back(std::move(ba));
  }
}

}  // namespace gsopt::exec::internal
