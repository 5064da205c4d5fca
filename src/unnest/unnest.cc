#include "unnest/nested_query.h"

#include <string>
#include <vector>

#include "algebra/schema_infer.h"
#include "base/check.h"

namespace gsopt {

StatusOr<NodePtr> UnnestToAlgebra(const NestedQuery& q,
                                  const Catalog& catalog) {
  // Flatten the block chain.
  std::vector<const NestedBlock*> levels;
  levels.push_back(&q.outer);
  for (const NestedBlock* b = q.outer.nested.get(); b != nullptr;
       b = b->nested.get()) {
    levels.push_back(b);
  }
  for (size_t k = 0; k < levels.size(); ++k) {
    bool has_nested = k + 1 < levels.size();
    if (levels[k]->condition.has_value() != has_nested) {
      return Status::InvalidArgument(
          "every non-innermost block needs a COUNT condition");
    }
  }

  // Per-level column inventory (for grouping keys).
  std::vector<Schema> schemas;
  for (const NestedBlock* b : levels) {
    GSOPT_ASSIGN_OR_RETURN(const Relation* rel, catalog.Table(b->table));
    schemas.push_back(rel->schema());
  }

  // Join tree: left-deep chain of LEFT OUTER JOINs on the correlation
  // predicates (paper Query 2's shape; note the second correlation is a
  // complex predicate when it references two ancestor levels).
  auto leaf = [&](size_t k) -> NodePtr {
    NodePtr n = Node::Leaf(levels[k]->table);
    if (!levels[k]->local.IsTrue()) n = Node::Select(n, levels[k]->local);
    return n;
  };
  NodePtr tree = leaf(0);
  for (size_t k = 1; k < levels.size(); ++k) {
    tree = Node::LeftOuterJoin(tree, leaf(k), levels[k]->correlation);
  }

  // Deepest-first: per conditioned block, aggregate the nested level away
  // and apply the COUNT comparison; a generalized selection preserves the
  // ancestor levels so zero-count ancestors survive (COUNT-bug safety).
  for (int k = static_cast<int>(levels.size()) - 2; k >= 0; --k) {
    exec::GroupBySpec spec;
    for (int a = 0; a <= k; ++a) {
      for (const Attribute& attr : schemas[a].attrs()) {
        spec.group_cols.push_back(attr);
      }
      spec.group_vid_rels.push_back(levels[a]->table);
    }
    std::string cnt_name = "cnt" + std::to_string(k + 1);
    exec::AggSpec cnt;
    cnt.func = exec::AggFunc::kCountPresence;
    cnt.presence_rel = levels[k + 1]->table;
    cnt.out_rel = "#cnt";
    cnt.out_name = cnt_name;
    spec.aggs = {cnt};
    tree = Node::GroupBy(tree, spec);

    Atom cond;
    cond.lhs = levels[k]->condition->lhs;
    cond.op = levels[k]->condition->cmp;
    cond.rhs = Scalar::Column("#cnt", cnt_name);
    Predicate pred{cond};
    if (k > 0) {
      exec::PreservedGroup ancestors;
      for (int a = 0; a < k; ++a) ancestors.insert(levels[a]->table);
      tree = Node::GeneralizedSelection(tree, pred, {ancestors});
    } else {
      tree = Node::Select(tree, pred);  // outermost: plain WHERE
    }
  }

  return Node::Project(tree, q.select_cols);
}

}  // namespace gsopt
