// Static output-schema inference for logical expression trees (no
// execution). Used by normalization (aggregation pull-up needs the column
// inventory of the non-aggregated side) and by the SQL binder.
//
// OutputQuals is the one rule for which relation qualifiers a subtree's
// output carries. It reads the answer off the tree alone, with no
// catalog: a leaf gives its table name, a projection the qualifiers of its
// output names, a group-by its group columns' qualifiers plus each
// aggregate's out_rel (a view column such as v.cnt), semi / anti joins
// their left input's, and every other operator the union of its inputs'.
// Normalization's WHERE push and the order-aware pass's join-side test
// both ask it.
#ifndef GSOPT_ALGEBRA_SCHEMA_INFER_H_
#define GSOPT_ALGEBRA_SCHEMA_INFER_H_

#include <set>
#include <string>

#include "algebra/node.h"
#include "base/status.h"
#include "relational/catalog.h"

namespace gsopt {

StatusOr<Schema> InferSchema(const NodePtr& node, const Catalog& catalog);

std::set<std::string> OutputQuals(const NodePtr& node);

}  // namespace gsopt

#endif  // GSOPT_ALGEBRA_SCHEMA_INFER_H_
