// SQL-text emitter: renders a logical algebra tree back into the SQL
// subset understood by sql/lexer+parser+binder, so every generated query
// can round-trip through the whole front end. GROUP BY nodes become aliased
// view subqueries (the binder re-merges them), a root selection becomes
// the statement's WHERE clause, other selections become
// `(SELECT * FROM ... WHERE p) AS sK` wrappers (the binder's star path
// preserves the underlying qualifiers), joins render structurally. The
// emitted text's top-level SELECT aliases every output column o0..oN under
// the binder's top-level qualifier `q`; `reference` wraps the input tree in
// the matching ProjectAs so EmitSql(t).reference and the re-bound SQL have
// identical visible schemas and can be compared with Relation::BagEquals.
#ifndef GSOPT_TESTING_SQL_EMIT_H_
#define GSOPT_TESTING_SQL_EMIT_H_

#include <string>

#include "algebra/node.h"
#include "base/status.h"
#include "relational/catalog.h"

namespace gsopt::testing {

struct EmittedQuery {
  std::string sql;
  // The input tree re-projected to the SQL text's output columns
  // ({q.o0, q.o1, ...}), for bag-equality against the re-bound tree.
  NodePtr reference;
  // The text carries a top-level ORDER BY (the tree root was kSort, under
  // at most one projection), so the round-trip comparison may additionally
  // check output ORDER, not just bag equality.
  bool has_order_by = false;
};

// Fails with kUnimplemented for trees outside the SQL surface (GS / MGOJ /
// anti / semi operators, COUNT_PRESENT aggregates, NULL or non-finite
// literals) and kNotFound for leaves missing from the catalog.
StatusOr<EmittedQuery> EmitSql(const NodePtr& tree, const Catalog& catalog);

}  // namespace gsopt::testing

#endif  // GSOPT_TESTING_SQL_EMIT_H_
