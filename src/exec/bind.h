// The one expression binder of the optimized kernels.
//
// The reference evaluator resolves every column reference BY NAME per row
// (Scalar::Eval scans the schema's qualified names for each reference).
// The optimized kernels -- Select and through it GS's selection pass, the
// hash join core's residuals and key terms, and the hash
// grouping feed's aggregate inputs -- instead bind a predicate or scalar
// term to a schema once per operator call:
//   * every column reference, arithmetic operands included, becomes a
//     schema index (Schema::Find, so the first-match rule is the
//     reference's);
//   * an unresolved column and a $n slot bind to NULL, exactly as
//     Scalar::Eval treats them, and arithmetic over constants folds;
//   * a statically TRUE atom is dropped, and a statically non-TRUE one
//     makes the predicate never TRUE.
// A bound row is evaluated by reading its values by reference and
// comparing through EvalCmp / EvalArith, the reference's own comparison and
// arithmetic; only arithmetic materializes a Value. A predicate bound
// against Schema::Concat(a, b) tests a (left row, right row) pair without
// building the concatenated tuple.
#ifndef GSOPT_EXEC_BIND_H_
#define GSOPT_EXEC_BIND_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "relational/expr.h"
#include "relational/tuple.h"

namespace gsopt::exec::internal {

// A row bound terms read: one tuple, or a (left, right) pair read as their
// concatenation. Borrows the tuples' values.
class RowRef {
 public:
  explicit RowRef(Tuple t) : left_(t.values.data()) {}
  RowRef(Tuple left, Tuple right)
      : left_(left.values.data()),
        right_(right.values.data()),
        split_(static_cast<int>(left.values.size())) {}

  const Value& operator[](int i) const {
    return i < split_ ? left_[i] : right_[i - split_];
  }

 private:
  const Value* left_;
  const Value* right_ = nullptr;
  int split_ = std::numeric_limits<int>::max();
};

// A scalar term bound to a schema. Default constructed it is the constant
// NULL.
class BoundScalar {
 public:
  BoundScalar() = default;
  BoundScalar(const Scalar& s, const Schema& schema);

  // The schema index when the term is a plain resolved column, else -1.
  int column() const { return col_; }

  // The term's value over `row`: a reference into the row or to the bound
  // constant; only arithmetic computes, into *scratch (which a column or
  // constant term never touches).
  const Value& Ref(const RowRef& row, Value* scratch) const {
    if (col_ >= 0) return row[col_];
    if (nodes_.empty()) return constant_;
    return RefNode(nodes_.size() - 1, row, scratch);
  }

 private:
  friend class BoundPredicate;
  struct Node {
    enum class Kind : uint8_t { kColumn, kConst, kArith };
    Kind kind = Kind::kConst;
    int col = -1;    // kColumn
    Value constant;  // kConst
    ArithOp op = ArithOp::kAdd;
    size_t lhs = 0, rhs = 0;  // kArith: indices of the operand nodes
  };

  // Appends `s`'s nodes (operands before their parent); returns the index
  // of s's node.
  size_t Bind(const Scalar& s, const Schema& schema);
  const Value& RefNode(size_t n, const RowRef& row, Value* scratch) const;
  // Non-null when the whole term folded to a constant.
  const Value* constant() const {
    return col_ < 0 && nodes_.empty() ? &constant_ : nullptr;
  }

  // A column or constant term is held in col_ / constant_ alone; an
  // arithmetic term is the node tree, its root last.
  int col_ = -1;
  Value constant_;
  std::vector<Node> nodes_;
};

// A conjunctive predicate bound to a schema (see the file comment).
class BoundPredicate {
 public:
  BoundPredicate(const Predicate& p, const Schema& schema);

  // True iff every atom is TRUE over `row` -- Predicate::Satisfied. Inline:
  // kernels call it once per row or candidate pair.
  bool Test(const RowRef& row) const {
    if (never_) return false;
    Value ls, rs;  // scratch for arithmetic operands
    for (const BoundAtom& a : atoms_) {
      const Value& l = a.lhs.Ref(row, &ls);
      switch (a.kind) {
        case Atom::Kind::kCompare:
          if (EvalCmp(a.op, l, a.rhs.Ref(row, &rs)) != Tri::kTrue) {
            return false;
          }
          break;
        case Atom::Kind::kIsNull:
          if (!l.is_null()) return false;
          break;
        case Atom::Kind::kIsNotNull:
          if (l.is_null()) return false;
          break;
      }
    }
    return true;
  }

 private:
  struct BoundAtom {
    Atom::Kind kind = Atom::Kind::kCompare;
    CmpOp op = CmpOp::kEq;
    BoundScalar lhs, rhs;
  };
  std::vector<BoundAtom> atoms_;  // statically TRUE atoms are dropped
  bool never_ = false;            // some atom is statically not TRUE
};

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_BIND_H_
