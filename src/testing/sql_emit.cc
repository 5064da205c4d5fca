#include "testing/sql_emit.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "exec/aggregate.h"

namespace gsopt::testing {

namespace {

// Keywords the lexer uppercases; identifiers colliding with them (in any
// case) must not be emitted as aliases.
bool IsSqlKeyword(const std::string& s) {
  static const std::set<std::string>* kw = new std::set<std::string>{
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",    "HAVING", "AS",
      "JOIN",   "LEFT",  "RIGHT", "FULL",  "INNER", "OUTER",  "ON",
      "AND",    "COUNT", "SUM",   "MIN",   "MAX",   "AVG",    "DISTINCT",
      "IS",     "NOT",   "NULL",  "ORDER", "ASC",   "DESC",
  };
  std::string up = s;
  for (char& c : up) c = static_cast<char>(std::toupper(c));
  return kw->count(up) > 0;
}

bool IsCleanIdent(const std::string& s) {
  if (s.empty() || IsSqlKeyword(s)) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return true;
}

// How one visible column of a rendered subexpression is referred to in the
// emitted SQL, keyed by the attribute it is in the algebra tree.
struct Rendered {
  std::string sql;       // table-ref text usable after FROM / as join operand
  bool is_join = false;  // bare join expression; parenthesize as an operand
  std::vector<std::pair<Attribute, std::string>> cols;
};

StatusOr<std::string> RenderValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return Status::Unimplemented("NULL literal is not expressible in SQL");
    case ValueType::kInt: {
      int64_t i = v.AsInt();
      // The lexer routes numbers through double, so magnitudes beyond 2^53
      // would silently lose precision on the way back in.
      if (i > (int64_t{1} << 53) || i < -(int64_t{1} << 53)) {
        return Status::Unimplemented("integer literal exceeds 2^53");
      }
      if (i < 0) return "(0 - " + std::to_string(-i) + ")";
      return std::to_string(i);
    }
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (!std::isfinite(d)) {
        return Status::Unimplemented("non-finite literal");
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", std::fabs(d));
      std::string s(buf);
      // The lexer's number grammar is digits[.digits]; no exponents.
      if (s.find_first_of("eE") != std::string::npos) {
        return Status::Unimplemented("double literal needs an exponent");
      }
      if (s.find('.') == std::string::npos) s += ".0";
      if (d < 0) return "(0 - " + s + ")";
      return s;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      if (s.find('\'') != std::string::npos) {
        return Status::Unimplemented("string literal containing a quote");
      }
      return "'" + s + "'";
    }
  }
  return Status::Internal("unhandled value type");
}

std::string CmpText(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "<>";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "=";
}

std::string ArithText(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "+";
}

std::string AggText(exec::AggFunc f) {
  switch (f) {
    case exec::AggFunc::kCountStar:
    case exec::AggFunc::kCount: return "COUNT";
    case exec::AggFunc::kSum: return "SUM";
    case exec::AggFunc::kMin: return "MIN";
    case exec::AggFunc::kMax: return "MAX";
    case exec::AggFunc::kAvg: return "AVG";
    case exec::AggFunc::kCountPresence:
    case exec::AggFunc::kGroupFlag: return "";
  }
  return "";
}

class Emitter {
 public:
  explicit Emitter(const Catalog& catalog) : catalog_(catalog) {}

  StatusOr<Rendered> Render(const NodePtr& n);

  StatusOr<std::string> RenderPredicate(const Predicate& p,
                                        const Rendered& scope) const {
    if (p.IsTrue()) return std::string("1 = 1");
    std::string out;
    for (const Atom& a : p.atoms()) {
      if (!out.empty()) out += " AND ";
      GSOPT_ASSIGN_OR_RETURN(std::string lhs, RenderScalar(a.lhs, scope));
      switch (a.kind) {
        case Atom::Kind::kCompare: {
          GSOPT_ASSIGN_OR_RETURN(std::string rhs, RenderScalar(a.rhs, scope));
          out += lhs + " " + CmpText(a.op) + " " + rhs;
          break;
        }
        case Atom::Kind::kIsNull:
          out += lhs + " IS NULL";
          break;
        case Atom::Kind::kIsNotNull:
          out += lhs + " IS NOT NULL";
          break;
      }
    }
    return out;
  }

 private:
  StatusOr<std::string> Lookup(const Rendered& scope, const std::string& rel,
                               const std::string& name) const {
    for (const auto& [attr, text] : scope.cols) {
      if (attr.rel == rel && attr.name == name) return text;
    }
    return Status::NotFound("column " + rel + "." + name +
                            " is not visible at this point in the tree");
  }

  StatusOr<std::string> RenderScalar(const ScalarPtr& s,
                                     const Rendered& scope) const {
    switch (s->kind()) {
      case Scalar::Kind::kColumn:
        return Lookup(scope, s->rel(), s->name());
      case Scalar::Kind::kConst:
        return RenderValue(s->constant());
      case Scalar::Kind::kArith: {
        GSOPT_ASSIGN_OR_RETURN(std::string l, RenderScalar(s->lhs(), scope));
        GSOPT_ASSIGN_OR_RETURN(std::string r, RenderScalar(s->rhs(), scope));
        return "(" + l + " " + ArithText(s->arith_op()) + " " + r + ")";
      }
      case Scalar::Kind::kParam:
        return "$" + std::to_string(s->param_slot() + 1);
    }
    return Status::Internal("unhandled scalar kind");
  }

  std::string FreshAlias(const std::string& stem) {
    return stem + std::to_string(next_alias_++);
  }

  StatusOr<Rendered> RenderGroupBy(const NodePtr& n);
  StatusOr<Rendered> RenderProject(const NodePtr& n);

  const Catalog& catalog_;
  int next_alias_ = 0;
};

StatusOr<Rendered> Emitter::RenderGroupBy(const NodePtr& n) {
  GSOPT_ASSIGN_OR_RETURN(Rendered child, Render(n->left()));
  const exec::GroupBySpec& spec = n->groupby();
  if (!spec.group_vid_rels.empty() || !spec.synthetic_vid) {
    return Status::Unimplemented(
        "normalizer-internal GROUP BY (virtual group keys) has no SQL form");
  }

  // The subquery alias: the aggregates' output qualifier when usable (the
  // binder then reproduces the exact output attributes), else fresh.
  std::string alias;
  for (const exec::AggSpec& agg : spec.aggs) {
    if (alias.empty() && IsCleanIdent(agg.out_rel)) alias = agg.out_rel;
  }
  if (alias.empty()) alias = FreshAlias("dv");

  Rendered out;
  std::string items, group_clause;
  std::vector<std::string> group_refs;
  for (size_t i = 0; i < spec.group_cols.size(); ++i) {
    const Attribute& g = spec.group_cols[i];
    GSOPT_ASSIGN_OR_RETURN(std::string ref, Lookup(child, g.rel, g.name));
    std::string gname = "g" + std::to_string(i);
    if (!items.empty()) items += ", ";
    items += ref + " AS " + gname;
    if (!group_clause.empty()) group_clause += ", ";
    group_clause += ref;
    out.cols.push_back({g, alias + "." + gname});
  }
  std::set<std::string> used_names;
  for (size_t j = 0; j < spec.aggs.size(); ++j) {
    const exec::AggSpec& agg = spec.aggs[j];
    if (agg.func == exec::AggFunc::kCountPresence) {
      return Status::Unimplemented("COUNT_PRESENT has no SQL form");
    }
    std::string arg = "*";
    if (agg.input != nullptr) {
      GSOPT_ASSIGN_OR_RETURN(arg, RenderScalar(agg.input, child));
    } else if (agg.func != exec::AggFunc::kCountStar) {
      return Status::Unimplemented("aggregate without an input expression");
    }
    std::string name = IsCleanIdent(agg.out_name) ? agg.out_name
                                                  : "agg" + std::to_string(j);
    while (!used_names.insert(name).second) name += "_" + std::to_string(j);
    if (!items.empty()) items += ", ";
    items += AggText(agg.func) + "(" +
             (agg.distinct ? std::string("DISTINCT ") : std::string()) + arg +
             ") AS " + name;
    out.cols.push_back({Attribute{agg.out_rel, agg.out_name},
                        alias + "." + name});
  }
  if (items.empty()) {
    return Status::Unimplemented("GROUP BY with no outputs has no SQL form");
  }
  out.sql = "(SELECT " + items + " FROM " + child.sql;
  if (!group_clause.empty()) out.sql += " GROUP BY " + group_clause;
  out.sql += ") AS " + alias;
  return out;
}

StatusOr<Rendered> Emitter::RenderProject(const NodePtr& n) {
  GSOPT_ASSIGN_OR_RETURN(Rendered child, Render(n->left()));
  const std::vector<Attribute>& src = n->projection();
  const std::vector<Attribute>& dst = n->projection_out();
  std::string alias = FreshAlias("p");
  Rendered out;
  std::string items;
  for (size_t i = 0; i < src.size(); ++i) {
    GSOPT_ASSIGN_OR_RETURN(std::string ref,
                           Lookup(child, src[i].rel, src[i].name));
    std::string name = IsCleanIdent(dst[i].name) ? dst[i].name
                                                 : "c" + std::to_string(i);
    if (!items.empty()) items += ", ";
    items += ref + " AS " + name;
    out.cols.push_back({dst[i], alias + "." + name});
  }
  if (items.empty()) {
    return Status::Unimplemented("empty projection has no SQL form");
  }
  out.sql = "(SELECT " + items + " FROM " + child.sql + ") AS " + alias;
  return out;
}

StatusOr<Rendered> Emitter::Render(const NodePtr& n) {
  switch (n->kind()) {
    case OpKind::kLeaf: {
      const Relation* rel = catalog_.Find(n->table());
      if (rel == nullptr) return Status::NotFound("no table " + n->table());
      if (!IsCleanIdent(n->table())) {
        return Status::Unimplemented("table name is not a SQL identifier: " +
                                     n->table());
      }
      Rendered out;
      out.sql = n->table();
      for (const Attribute& a : rel->schema().attrs()) {
        if (!IsCleanIdent(a.name)) {
          return Status::Unimplemented("column name is not a SQL identifier: " +
                                       a.Qualified());
        }
        out.cols.push_back({a, a.Qualified()});
      }
      return out;
    }
    case OpKind::kSelect: {
      GSOPT_ASSIGN_OR_RETURN(Rendered child, Render(n->left()));
      GSOPT_ASSIGN_OR_RETURN(std::string pred,
                             RenderPredicate(n->pred(), child));
      Rendered out;
      out.sql = "(SELECT * FROM " + child.sql + " WHERE " + pred + ") AS " +
                FreshAlias("s");
      out.cols = std::move(child.cols);
      return out;
    }
    case OpKind::kProject:
      return RenderProject(n);
    case OpKind::kGroupBy:
      return RenderGroupBy(n);
    case OpKind::kInnerJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kRightOuterJoin:
    case OpKind::kFullOuterJoin: {
      GSOPT_ASSIGN_OR_RETURN(Rendered l, Render(n->left()));
      GSOPT_ASSIGN_OR_RETURN(Rendered r, Render(n->right()));
      Rendered out;
      out.cols = l.cols;
      out.cols.insert(out.cols.end(), r.cols.begin(), r.cols.end());
      GSOPT_ASSIGN_OR_RETURN(std::string pred,
                             RenderPredicate(n->pred(), out));
      std::string op;
      switch (n->kind()) {
        case OpKind::kInnerJoin: op = " JOIN "; break;
        case OpKind::kLeftOuterJoin: op = " LEFT OUTER JOIN "; break;
        case OpKind::kRightOuterJoin: op = " RIGHT OUTER JOIN "; break;
        default: op = " FULL OUTER JOIN "; break;
      }
      out.sql = (l.is_join ? "(" + l.sql + ")" : l.sql) + op +
                (r.is_join ? "(" + r.sql + ")" : r.sql) + " ON " + pred;
      out.is_join = true;
      return out;
    }
    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin:
    case OpKind::kGeneralizedSelection:
    case OpKind::kMgoj:
      return Status::Unimplemented(OpKindName(n->kind()) +
                                   " is not in the SQL surface");
    case OpKind::kSort:
      // ORDER BY only has defined semantics at the outermost SELECT (and
      // EmitSql peels a root sort off before rendering); a sort buried in
      // a subquery would be silently meaningless SQL.
      return Status::Unimplemented("mid-tree SORT is not in the SQL surface");
  }
  return Status::Internal("unhandled node kind");
}

}  // namespace

StatusOr<EmittedQuery> EmitSql(const NodePtr& tree, const Catalog& catalog) {
  GSOPT_CHECK(tree != nullptr);
  Emitter emitter(catalog);

  // A kProject root supplies the select list directly; any other root
  // exposes every visible column. Either way the text aliases output i as
  // `oi`, which the binder projects to {q, oi} at top level, and
  // `reference` applies the identical rename to the input tree. A root
  // kSort (optionally under the projection -- the binder's ORDER BY shape)
  // is peeled off here and re-rendered as the outermost ORDER BY clause.
  // A selection directly below it becomes the statement's own WHERE
  // clause, so the round trip re-binds through the binder's top-level
  // WHERE shape (one selection over the whole FROM item).
  NodePtr proj = tree->kind() == OpKind::kProject ? tree : nullptr;
  NodePtr below = proj != nullptr ? proj->left() : tree;
  NodePtr sort = below->kind() == OpKind::kSort ? below : nullptr;
  NodePtr body = sort != nullptr ? sort->left() : below;
  NodePtr where = body->kind() == OpKind::kSelect ? body : nullptr;
  NodePtr from = where != nullptr ? where->left() : body;
  GSOPT_ASSIGN_OR_RETURN(Rendered r, emitter.Render(from));

  std::vector<std::pair<Attribute, std::string>> selected;
  if (proj != nullptr) {
    const std::vector<Attribute>& src = proj->projection();
    const std::vector<Attribute>& dst = proj->projection_out();
    for (size_t i = 0; i < src.size(); ++i) {
      std::string text;
      for (const auto& [attr, t] : r.cols) {
        if (attr == src[i]) { text = t; break; }
      }
      if (text.empty()) {
        return Status::NotFound("projected column not visible: " +
                                src[i].Qualified());
      }
      selected.push_back({dst[i], text});
    }
  } else {
    for (const auto& [attr, text] : r.cols) {
      bool seen = false;
      for (const auto& [prev, unused] : selected) {
        if (prev == attr) { seen = true; break; }
      }
      if (!seen) selected.push_back({attr, text});
    }
  }
  if (selected.empty()) {
    return Status::Unimplemented("query with no output columns");
  }

  std::string items;
  std::vector<Attribute> src_attrs, out_attrs;
  for (size_t i = 0; i < selected.size(); ++i) {
    if (!items.empty()) items += ", ";
    items += selected[i].second + " AS o" + std::to_string(i);
    src_attrs.push_back(selected[i].first);
    out_attrs.push_back(Attribute{"q", "o" + std::to_string(i)});
  }

  EmittedQuery out;
  out.sql = "SELECT " + items + " FROM " + r.sql;
  if (where != nullptr) {
    GSOPT_ASSIGN_OR_RETURN(std::string pred,
                           emitter.RenderPredicate(where->pred(), r));
    out.sql += " WHERE " + pred;
  }
  if (sort != nullptr) {
    std::string clause;
    for (const exec::SortKey& k : sort->sort_spec()) {
      std::string text;
      for (const auto& [attr, t] : r.cols) {
        if (attr == k.attr) {
          text = t;
          break;
        }
      }
      if (text.empty()) {
        return Status::NotFound("sort key not visible: " + k.attr.Qualified());
      }
      if (!clause.empty()) clause += ", ";
      clause += text + (k.desc ? " DESC" : " ASC");
    }
    out.sql += " ORDER BY " + clause;
    out.has_order_by = true;
  }
  out.reference = Node::ProjectAs(tree, std::move(src_attrs),
                                  std::move(out_attrs));
  return out;
}

}  // namespace gsopt::testing
