#include "unnest/nested_query.h"

#include <algorithm>

#include "base/check.h"

namespace gsopt {

namespace {

// Number of tuples of `block` qualifying under the environment `env`
// (concatenation of all ancestor tuples).
StatusOr<int64_t> CountQualified(const NestedBlock& block,
                                 const Catalog& catalog, Tuple env,
                                 const Schema& env_schema) {
  GSOPT_ASSIGN_OR_RETURN(const Relation* rel, catalog.Table(block.table));
  const Schema extended_schema = Schema::Concat(env_schema, rel->schema());
  int64_t count = 0;
  OwnedTuple extended;
  for (const Tuple& t : rel->rows()) {
    if (!block.local.Satisfied(t, rel->schema())) continue;
    extended.AssignConcat(env, t);
    if (!block.correlation.Satisfied(extended, extended_schema)) continue;
    if (block.condition.has_value()) {
      GSOPT_CHECK(block.nested != nullptr);
      GSOPT_ASSIGN_OR_RETURN(
          int64_t inner,
          CountQualified(*block.nested, catalog, extended, extended_schema));
      Value lhs = block.condition->lhs->Eval(extended, extended_schema);
      if (EvalCmp(block.condition->cmp, lhs, Value::Int(inner)) !=
          Tri::kTrue) {
        continue;
      }
    }
    ++count;
  }
  return count;
}

}  // namespace

StatusOr<Relation> ExecuteTis(const NestedQuery& q, const Catalog& catalog) {
  const NestedBlock& outer = q.outer;
  GSOPT_ASSIGN_OR_RETURN(const Relation* table, catalog.Table(outer.table));
  const Relation& rel = *table;

  Schema out_schema;
  std::vector<int> proj;
  for (const Attribute& a : q.select_cols) {
    int i = rel.schema().Find(a.rel, a.name);
    if (i < 0) {
      return Status::NotFound("select column " + a.Qualified() +
                              " not in outer table");
    }
    out_schema.Append(a);
    proj.push_back(i);
  }
  Relation out(out_schema, VirtualSchema({outer.table}));

  for (const Tuple& t : rel.rows()) {
    if (!outer.local.Satisfied(t, rel.schema())) continue;
    if (outer.condition.has_value()) {
      GSOPT_CHECK(outer.nested != nullptr);
      GSOPT_ASSIGN_OR_RETURN(
          int64_t inner,
          CountQualified(*outer.nested, catalog, t, rel.schema()));
      Value lhs = outer.condition->lhs->Eval(t, rel.schema());
      if (EvalCmp(outer.condition->cmp, lhs, Value::Int(inner)) !=
          Tri::kTrue) {
        continue;
      }
    }
    const MutableTuple nt = out.AddNullRow();
    for (size_t k = 0; k < proj.size(); ++k) nt.values[k] = t.values[proj[k]];
    std::copy(t.vids.begin(), t.vids.end(), nt.vids.begin());
  }
  return out;
}

}  // namespace gsopt
