// Logical algebra expression trees covering the paper's operator set:
// base relations, selection, inner / left / right / full outer join, anti
// and semi join, generalized selection (GS), MGOJ, generalized projection
// (GROUP BY) and projection. Nodes are immutable and shared; rewrites build
// new trees, rebuilding a node of unchanged kind through WithChildren /
// WithPred / WithGroupBy so that no pass drops a field it does not know
// about (output names, preserved groups, sort specs).
#ifndef GSOPT_ALGEBRA_NODE_H_
#define GSOPT_ALGEBRA_NODE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/eval.h"
#include "exec/sort.h"
#include "relational/expr.h"

namespace gsopt {

enum class OpKind {
  kLeaf,
  kSelect,
  kProject,
  kInnerJoin,
  kLeftOuterJoin,
  kRightOuterJoin,
  kFullOuterJoin,
  kAntiJoin,
  kSemiJoin,
  kGeneralizedSelection,
  kMgoj,
  kGroupBy,
  // Order enforcer (ORDER BY / interesting-order sorts): sorts the child
  // by a SortSpec under the contract of exec/sort.h. Its ToString renders
  // every key's direction, so sort direction is part of the canonical tree
  // string and therefore of plan-cache fingerprints.
  kSort,
};

bool IsBinary(OpKind k);
bool IsJoinLike(OpKind k);
std::string OpKindName(OpKind k);

class Node;
using NodePtr = std::shared_ptr<const Node>;

class Node {
 public:
  // --- factories ---
  static NodePtr Leaf(std::string table);
  static NodePtr Select(NodePtr child, Predicate p);
  static NodePtr Project(NodePtr child, std::vector<Attribute> attrs);
  // Projection with renaming: output column i is `out[i]`, sourced from
  // `src[i]` (used by the SQL binder for view aliases / SELECT ... AS).
  static NodePtr ProjectAs(NodePtr child, std::vector<Attribute> src,
                           std::vector<Attribute> out);
  static NodePtr Join(NodePtr l, NodePtr r, Predicate p);
  static NodePtr LeftOuterJoin(NodePtr l, NodePtr r, Predicate p);
  static NodePtr RightOuterJoin(NodePtr l, NodePtr r, Predicate p);
  static NodePtr FullOuterJoin(NodePtr l, NodePtr r, Predicate p);
  static NodePtr AntiJoin(NodePtr l, NodePtr r, Predicate p);
  static NodePtr SemiJoin(NodePtr l, NodePtr r, Predicate p);
  static NodePtr GeneralizedSelection(NodePtr child, Predicate p,
                                      std::vector<exec::PreservedGroup> gs);
  static NodePtr Mgoj(NodePtr l, NodePtr r, Predicate p,
                      std::vector<exec::PreservedGroup> gs);
  static NodePtr GroupBy(NodePtr child, exec::GroupBySpec spec);
  static NodePtr Sort(NodePtr child, exec::SortSpec spec);

  // Generic binary factory by kind (inner/outer joins).
  static NodePtr Binary(OpKind kind, NodePtr l, NodePtr r, Predicate p);

  // The one way a rewrite rebuilds a node without changing its kind: a
  // copy of `n` that keeps every other field (groups, specs, output
  // names). WithChildren returns `n` itself when neither child changed, so
  // untouched subtrees stay shared; pass nullptr for the right child of a
  // unary node. A kind change (LOJ -> JOIN) goes through
  // Binary instead.
  static NodePtr WithChildren(const NodePtr& n, NodePtr l, NodePtr r);
  static NodePtr WithPred(const NodePtr& n, Predicate p);
  static NodePtr WithGroupBy(const NodePtr& n, exec::GroupBySpec spec);

  OpKind kind() const { return kind_; }
  const std::string& table() const { return table_; }
  const Predicate& pred() const { return pred_; }
  const std::vector<exec::PreservedGroup>& groups() const { return groups_; }
  const exec::GroupBySpec& groupby() const { return groupby_; }
  const exec::SortSpec& sort_spec() const { return sort_spec_; }
  const std::vector<Attribute>& projection() const { return projection_; }
  // Output attributes for kProject; equals projection() unless renaming.
  const std::vector<Attribute>& projection_out() const {
    return projection_out_.empty() ? projection_ : projection_out_;
  }
  const NodePtr& left() const { return left_; }
  const NodePtr& right() const { return right_; }

  // Base relation names under this node.
  std::set<std::string> BaseRels() const;

  int NumOps() const;

  // Compact algebraic rendering, e.g.
  //   GS[r2.e=r3.e; {r1,r2}]((r1 LOJ[r1.c=r2.c] r2) LOJ[r1.f=r3.f] r3)
  // It is the canonical form plan-cache keys hash, so whatever changes a
  // query's answer must show: a renaming projection renders `src AS out`
  // per renamed column, and a sort its key directions.
  std::string ToString() const;

 private:
  friend struct NodeBuilder;
  Node() = default;

  OpKind kind_ = OpKind::kLeaf;
  std::string table_;
  Predicate pred_;
  std::vector<exec::PreservedGroup> groups_;
  exec::GroupBySpec groupby_;
  exec::SortSpec sort_spec_;
  std::vector<Attribute> projection_;
  std::vector<Attribute> projection_out_;
  NodePtr left_, right_;
};

}  // namespace gsopt

#endif  // GSOPT_ALGEBRA_NODE_H_
