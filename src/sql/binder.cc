#include "sql/binder.h"

#include <map>
#include <vector>

#include "sql/parser.h"

namespace gsopt::sql {

namespace {

// One visible column: how the query text may refer to it (exposed) and the
// attribute it actually is in the underlying tree (actual).
struct VisibleColumn {
  Attribute exposed;
  Attribute actual;
};

struct BoundTable {
  NodePtr tree;
  std::vector<VisibleColumn> columns;
};

class Binder {
 public:
  explicit Binder(const Catalog& catalog) : catalog_(catalog) {}

  // out_qualifier: qualifier given to aggregate outputs / the final
  // projection of this block (the view alias, or "q" at top level).
  StatusOr<BoundTable> BindQuery(const SqlQuery& q,
                                 const std::string& out_qualifier,
                                 bool top_level);

 private:
  StatusOr<BoundTable> BindTableRef(const SqlTableRef& ref);
  StatusOr<BoundTable> BindFromWhere(const SqlQuery& q);

  StatusOr<const VisibleColumn*> Resolve(const BoundTable& t,
                                         const std::string& qualifier,
                                         const std::string& column) const;

  // Binds a scalar expression (no aggregates allowed).
  StatusOr<ScalarPtr> BindScalar(const BoundTable& t, const SqlExpr& e) const;

  StatusOr<Predicate> BindPredicate(const BoundTable& t,
                                    const SqlPredicate& p) const;

  const Catalog& catalog_;
  int agg_counter_ = 0;
};

StatusOr<const VisibleColumn*> Binder::Resolve(const BoundTable& t,
                                               const std::string& qualifier,
                                               const std::string& column) const {
  const VisibleColumn* found = nullptr;
  for (const VisibleColumn& vc : t.columns) {
    if (vc.exposed.name != column) continue;
    if (!qualifier.empty() && vc.exposed.rel != qualifier) continue;
    if (found != nullptr && !(found->actual == vc.actual)) {
      return Status::InvalidArgument("ambiguous column " +
                                     (qualifier.empty()
                                          ? column
                                          : qualifier + "." + column));
    }
    found = &vc;
  }
  if (found == nullptr) {
    return Status::NotFound("unknown column " +
                            (qualifier.empty() ? column
                                               : qualifier + "." + column));
  }
  return found;
}

StatusOr<ScalarPtr> Binder::BindScalar(const BoundTable& t,
                                       const SqlExpr& e) const {
  switch (e.kind) {
    case SqlExpr::Kind::kLiteral:
      return Scalar::Const(e.literal);
    case SqlExpr::Kind::kParam:
      return Scalar::Param(e.param_slot);
    case SqlExpr::Kind::kColumn: {
      GSOPT_ASSIGN_OR_RETURN(const VisibleColumn* vc,
                             Resolve(t, e.qualifier, e.column));
      return Scalar::Column(vc->actual.rel, vc->actual.name);
    }
    case SqlExpr::Kind::kArith: {
      GSOPT_ASSIGN_OR_RETURN(ScalarPtr l, BindScalar(t, *e.lhs));
      GSOPT_ASSIGN_OR_RETURN(ScalarPtr r, BindScalar(t, *e.rhs));
      return Scalar::Arith(e.arith_op, std::move(l), std::move(r));
    }
    case SqlExpr::Kind::kAgg:
      return Status::InvalidArgument(
          "aggregate not allowed in this context");
    case SqlExpr::Kind::kStar:
      return Status::InvalidArgument("* not allowed in this context");
  }
  return Status::Internal("unhandled expression kind");
}

StatusOr<Predicate> Binder::BindPredicate(const BoundTable& t,
                                          const SqlPredicate& p) const {
  Predicate out;
  for (const SqlComparison& c : p) {
    Atom a;
    GSOPT_ASSIGN_OR_RETURN(a.lhs, BindScalar(t, *c.lhs));
    if (c.null_test != SqlComparison::NullTest::kNone) {
      a.kind = c.null_test == SqlComparison::NullTest::kIsNull
                   ? Atom::Kind::kIsNull
                   : Atom::Kind::kIsNotNull;
    } else {
      a.op = c.op;
      GSOPT_ASSIGN_OR_RETURN(a.rhs, BindScalar(t, *c.rhs));
    }
    out.AddAtom(std::move(a));
  }
  return out;
}

StatusOr<BoundTable> Binder::BindTableRef(const SqlTableRef& ref) {
  switch (ref.kind) {
    case SqlTableRef::Kind::kTable: {
      const Relation* rel = catalog_.Find(ref.table);
      if (rel == nullptr) return Status::NotFound("no table " + ref.table);
      BoundTable t;
      t.tree = Node::Leaf(ref.table);
      for (const Attribute& a : rel->schema().attrs()) {
        t.columns.push_back(VisibleColumn{a, a});
      }
      return t;
    }
    case SqlTableRef::Kind::kSubquery:
      return BindQuery(*ref.subquery, ref.alias, /*top_level=*/false);
    case SqlTableRef::Kind::kJoin: {
      GSOPT_ASSIGN_OR_RETURN(BoundTable l, BindTableRef(*ref.left));
      GSOPT_ASSIGN_OR_RETURN(BoundTable r, BindTableRef(*ref.right));
      BoundTable t;
      t.columns = l.columns;
      for (const VisibleColumn& vc : r.columns) {
        for (const VisibleColumn& existing : l.columns) {
          if (existing.actual == vc.actual) {
            return Status::InvalidArgument(
                "relation used twice (self joins need distinct copies): " +
                vc.actual.Qualified());
          }
        }
        t.columns.push_back(vc);
      }
      GSOPT_ASSIGN_OR_RETURN(Predicate on, BindPredicate(t, ref.on));
      OpKind k = OpKind::kInnerJoin;
      switch (ref.join_kind) {
        case SqlTableRef::JoinKind::kInner:
          k = OpKind::kInnerJoin;
          break;
        case SqlTableRef::JoinKind::kLeft:
          k = OpKind::kLeftOuterJoin;
          break;
        case SqlTableRef::JoinKind::kRight:
          k = OpKind::kRightOuterJoin;
          break;
        case SqlTableRef::JoinKind::kFull:
          k = OpKind::kFullOuterJoin;
          break;
      }
      t.tree = Node::Binary(k, l.tree, r.tree, std::move(on));
      return t;
    }
  }
  return Status::Internal("unhandled table ref kind");
}

StatusOr<BoundTable> Binder::BindFromWhere(const SqlQuery& q) {
  if (q.from.empty()) {
    return Status::InvalidArgument("FROM clause required");
  }
  std::vector<BoundTable> items;
  for (const auto& ref : q.from) {
    GSOPT_ASSIGN_OR_RETURN(BoundTable t, BindTableRef(*ref));
    items.push_back(std::move(t));
  }

  // Distribute the WHERE conjuncts: single-item atoms become selections on
  // that item; cross-item atoms become join predicates at the first
  // combination where both sides are available. A single FROM item (an
  // explicit JOIN chain) therefore gets the whole WHERE as one selection
  // on top; NormalizeForReordering later sinks each conjunct as deep into
  // the chain as the outer joins allow.
  std::vector<const SqlComparison*> pending;
  for (const SqlComparison& c : q.where) pending.push_back(&c);

  auto try_bind_all = [&](const BoundTable& t,
                          std::vector<const SqlComparison*>* from,
                          Predicate* into) -> Status {
    std::vector<const SqlComparison*> still;
    for (const SqlComparison* c : *from) {
      SqlPredicate one{*c};
      auto bound = BindPredicate(t, one);
      if (bound.ok()) {
        *into = Predicate::And(*into, *bound);
      } else {
        still.push_back(c);
      }
    }
    *from = std::move(still);
    return Status::OK();
  };

  // Per-item local filters first.
  for (BoundTable& item : items) {
    Predicate local;
    GSOPT_RETURN_IF_ERROR(try_bind_all(item, &pending, &local));
    if (!local.IsTrue()) item.tree = Node::Select(item.tree, local);
  }

  BoundTable acc = std::move(items[0]);
  for (size_t i = 1; i < items.size(); ++i) {
    BoundTable combined;
    combined.columns = acc.columns;
    for (const VisibleColumn& vc : items[i].columns) {
      combined.columns.push_back(vc);
    }
    Predicate join_pred;
    combined.tree = acc.tree;  // temporary for binding
    BoundTable probe = combined;
    probe.tree = Node::Join(acc.tree, items[i].tree, Predicate::True());
    GSOPT_RETURN_IF_ERROR(try_bind_all(probe, &pending, &join_pred));
    combined.tree = Node::Join(acc.tree, items[i].tree, join_pred);
    acc = std::move(combined);
  }
  if (!pending.empty()) {
    SqlPredicate rest;
    for (const SqlComparison* c : pending) rest.push_back(*c);
    GSOPT_ASSIGN_OR_RETURN(Predicate p, BindPredicate(acc, rest));
    acc.tree = Node::Select(acc.tree, p);
  }
  return acc;
}

StatusOr<BoundTable> Binder::BindQuery(const SqlQuery& q,
                                       const std::string& out_qualifier,
                                       bool top_level) {
  GSOPT_ASSIGN_OR_RETURN(BoundTable t, BindFromWhere(q));

  bool has_agg = !q.group_by.empty();
  for (const SqlSelectItem& item : q.select) {
    if (!item.star && item.expr->ContainsAggregate()) has_agg = true;
  }

  BoundTable result;
  if (has_agg) {
    exec::GroupBySpec spec;
    // Ordered select-list exports (what the view/query exposes) vs full
    // post-GROUP-BY visibility (what HAVING may reference).
    std::vector<VisibleColumn> out_columns;
    for (const SqlExprPtr& g : q.group_by) {
      GSOPT_ASSIGN_OR_RETURN(const VisibleColumn* vc,
                             Resolve(t, g->qualifier, g->column));
      spec.group_cols.push_back(vc->actual);
    }
    // Aggregates from SELECT items (each must be a bare aggregate call)
    // and from HAVING.
    auto add_agg = [&](const SqlExpr& e,
                       const std::string& alias) -> StatusOr<Attribute> {
      exec::AggSpec agg;
      agg.func = e.agg_func;
      agg.distinct = e.agg_distinct;
      if (e.agg_input != nullptr) {
        GSOPT_ASSIGN_OR_RETURN(agg.input, BindScalar(t, *e.agg_input));
      }
      agg.out_rel = out_qualifier;
      agg.out_name =
          alias.empty() ? "#agg" + std::to_string(agg_counter_++) : alias;
      Attribute out{agg.out_rel, agg.out_name};
      spec.aggs.push_back(std::move(agg));
      return out;
    };

    for (const SqlSelectItem& item : q.select) {
      if (item.star) {
        return Status::InvalidArgument("* not allowed with GROUP BY");
      }
      if (item.expr->kind == SqlExpr::Kind::kAgg) {
        GSOPT_ASSIGN_OR_RETURN(Attribute out, add_agg(*item.expr, item.alias));
        out_columns.push_back(VisibleColumn{out, out});
      } else if (item.expr->kind == SqlExpr::Kind::kColumn) {
        GSOPT_ASSIGN_OR_RETURN(
            const VisibleColumn* vc,
            Resolve(t, item.expr->qualifier, item.expr->column));
        bool is_group_col = false;
        for (const Attribute& g : spec.group_cols) {
          if (g == vc->actual) is_group_col = true;
        }
        if (!is_group_col) {
          return Status::InvalidArgument("column " + vc->exposed.Qualified() +
                                         " must appear in GROUP BY");
        }
        // Export under the alias (or column name) qualified by this
        // block's qualifier, so `v.a` resolves for a view aliased v.
        std::string exposed_name =
            item.alias.empty() ? vc->exposed.name : item.alias;
        out_columns.push_back(VisibleColumn{
            Attribute{out_qualifier, exposed_name}, vc->actual});
      } else {
        return Status::Unimplemented(
            "SELECT items with GROUP BY must be columns or aggregates");
      }
    }

    // HAVING: bare aggregate operands become hidden aggregate outputs.
    SqlPredicate having_rewritten;
    for (const SqlComparison& c : q.having) {
      SqlComparison nc = c;
      for (SqlExprPtr* side : {&nc.lhs, &nc.rhs}) {
        if ((*side)->kind == SqlExpr::Kind::kAgg) {
          GSOPT_ASSIGN_OR_RETURN(Attribute out, add_agg(**side, ""));
          auto col = std::make_shared<SqlExpr>();
          col->kind = SqlExpr::Kind::kColumn;
          col->qualifier = out.rel;
          col->column = out.name;
          *side = col;
        }
      }
      having_rewritten.push_back(std::move(nc));
    }

    result.tree = Node::GroupBy(t.tree, spec);
    // HAVING may reference group columns (original names) and every
    // aggregate output; the exported interface stays the select list.
    BoundTable having_scope;
    having_scope.tree = result.tree;
    having_scope.columns = out_columns;
    for (const Attribute& g : spec.group_cols) {
      having_scope.columns.push_back(VisibleColumn{g, g});
    }
    for (const exec::AggSpec& agg : spec.aggs) {
      Attribute out{agg.out_rel, agg.out_name};
      having_scope.columns.push_back(VisibleColumn{out, out});
    }
    result.columns = out_columns;

    if (!having_rewritten.empty()) {
      GSOPT_ASSIGN_OR_RETURN(Predicate having,
                             BindPredicate(having_scope, having_rewritten));
      result.tree = Node::Select(result.tree, having);
    }
  } else {
    // Plain select list (columns, possibly renamed).
    result.tree = t.tree;
    for (const SqlSelectItem& item : q.select) {
      if (item.star) {
        for (const VisibleColumn& vc : t.columns) {
          result.columns.push_back(vc);
        }
        continue;
      }
      if (item.expr->kind != SqlExpr::Kind::kColumn) {
        return Status::Unimplemented(
            "computed SELECT items are not supported (only columns and "
            "aggregates)");
      }
      GSOPT_ASSIGN_OR_RETURN(
          const VisibleColumn* vc,
          Resolve(t, item.expr->qualifier, item.expr->column));
      VisibleColumn out = *vc;
      if (!item.alias.empty()) {
        out.exposed = Attribute{out_qualifier, item.alias};
      }
      result.columns.push_back(out);
      if (item.alias.empty() && !top_level) {
        // Also reachable as <alias>.<name> when this block is a view.
        result.columns.push_back(VisibleColumn{
            Attribute{out_qualifier, vc->exposed.name}, vc->actual});
      }
    }
  }

  if (!q.order_by.empty()) {
    if (!top_level) {
      // SQL gives ORDER BY no semantics inside a view subquery; silently
      // dropping it would lie about the emitted order, so refuse.
      return Status::InvalidArgument(
          "ORDER BY is only supported on the outermost query");
    }
    // Keys resolve against the select list first (aliases included); for
    // non-aggregate queries an unselected underlying column also works --
    // the sort sits BELOW the final projection, where it is still visible.
    BoundTable scope;
    scope.columns = result.columns;
    exec::SortSpec spec;
    for (const SqlOrderItem& item : q.order_by) {
      auto vc = Resolve(scope, item.expr->qualifier, item.expr->column);
      if (!vc.ok() && !has_agg) {
        vc = Resolve(t, item.expr->qualifier, item.expr->column);
      }
      if (!vc.ok()) return vc.status();
      spec.push_back(exec::SortKey{(*vc)->actual, item.desc});
    }
    result.tree = Node::Sort(result.tree, std::move(spec));
  }

  if (top_level) {
    // Final output shape: project + rename to the exposed names.
    std::vector<Attribute> src, out;
    for (const VisibleColumn& vc : result.columns) {
      src.push_back(vc.actual);
      out.push_back(vc.exposed);
    }
    result.tree = Node::ProjectAs(result.tree, std::move(src),
                                  std::move(out));
  }
  return result;
}

}  // namespace

StatusOr<NodePtr> Bind(const SqlQuery& query, const Catalog& catalog) {
  Binder b(catalog);
  GSOPT_ASSIGN_OR_RETURN(BoundTable t,
                         b.BindQuery(query, "q", /*top_level=*/true));
  return t.tree;
}

StatusOr<NodePtr> ParseAndBind(const std::string& text,
                               const Catalog& catalog) {
  GSOPT_ASSIGN_OR_RETURN(SqlQuery q, Parse(text));
  return Bind(q, catalog);
}

}  // namespace gsopt::sql
