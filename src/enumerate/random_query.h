// Seeded random query generation over the PAPER'S FULL QUERY CLASS: random
// join/outer-join trees over base relations r1..rn with simple or complex
// conjunctive predicates, optionally containing a GROUP BY view
// (SUM/COUNT/MIN/MAX/AVG, DISTINCT variants) whose aggregate output may be
// referenced by ON predicates above it -- the aggregation-pullup scenarios
// of paper §4. Used by the equivalence property suites (every enumerated
// plan must reproduce the as-written result on random data), by the
// metamorphic fuzz harness (src/testing/) and by the plan-space benchmarks.
#ifndef GSOPT_ENUMERATE_RANDOM_QUERY_H_
#define GSOPT_ENUMERATE_RANDOM_QUERY_H_

#include "algebra/node.h"
#include "base/rng.h"
#include "exec/aggregate.h"

namespace gsopt {

struct RandomQueryOptions {
  int num_rels = 4;
  // Probability a binary operator is LOJ / FOJ (remainder inner join).
  double loj_prob = 0.4;
  double foj_prob = 0.1;
  // Probability a predicate gets a second conjunct (making it complex when
  // the extra conjunct references a third relation).
  double extra_atom_prob = 0.4;
  // Columns available per relation (r_i.a, r_i.b, ...).
  int num_cols = 3;
  // When a second conjunct is generated, probability it reuses the first
  // atom's column pair (with an independently drawn comparison operator),
  // so predicates can repeat a column pair -- including the exact-duplicate
  // `p AND p` shape that exercises tautological-conjunct handling in
  // simplification and enumeration.
  double dup_pair_prob = 0.0;

  // --- general-class extensions (GROUP BY views, aggregated columns) ---
  // Probability the query contains a GROUP BY view over a subset of the
  // relations (only effective with num_rels >= 2; MakeGeneralRandomQuery).
  double view_prob = 0.0;
  // Probability an ON-predicate atom that touches the view references the
  // aggregate output column instead of a group column.
  double agg_pred_prob = 0.5;
  // Probability an aggregate with an input column is DISTINCT.
  double distinct_prob = 0.25;
  // Probability an aggregated-column reference is scaled by a constant
  // (`x < 2 * v.agg`, the paper's Example 2.1 / `V2.QTY < 2 * V3.CNT`
  // shape).
  double agg_arith_prob = 0.3;

  // --- ordering extensions (ORDER BY / the kSort enforcer) ---
  // Probability the query is wrapped in a root ORDER BY (Node::Sort) over
  // one or two visible columns with independently drawn ASC/DESC
  // directions; in the view case the aggregate output column is a
  // candidate key.
  double order_by_prob = 0.0;

  // --- WHERE extensions (a root selection) ---
  // Probability the query is wrapped, below the optional ORDER BY, in a
  // selection of one or two conjuncts over visible columns (in the view
  // case the aggregate output is a candidate): column vs constant,
  // IS [NOT] NULL, or column vs column across relations. At zero nothing
  // is drawn, so the Rng stream matches generation without WHERE.
  double where_prob = 0.0;
};

// What one generated query actually contains; the fuzz driver aggregates
// these into its coverage summary.
struct RandomQueryFeatures {
  bool has_view = false;          // a GROUP BY view is present
  bool has_agg_pred = false;      // a predicate references the agg output
  bool has_distinct = false;      // the aggregate is DISTINCT
  bool has_dup_pair = false;      // a predicate repeats a column pair
  bool has_complex_pred = false;  // a predicate references > 2 relations
  bool has_outer_join = false;    // at least one LOJ/ROJ/FOJ
  bool has_order_by = false;      // a root ORDER BY (kSort) is present
  bool has_desc_key = false;      // ...with at least one DESC key
  bool has_where = false;         // a root WHERE selection is present
  int num_rels = 0;
};

// Builds a random join/outer-join tree over leaves r1..r<num_rels>. Every
// operator's predicate references at least one relation from each side (so
// the hypergraph is connected and well-formed). With options.where_prob
// the tree is filtered by a root WHERE, with options.order_by_prob sorted
// by a root ORDER BY above it. `features`, when non-null,
// reports what was generated.
NodePtr MakeRandomQuery(const RandomQueryOptions& options, Rng* rng,
                        RandomQueryFeatures* features = nullptr);

// Builds a random query from the paper's general class: with probability
// options.view_prob a prefix of the relations is wrapped in a GROUP BY view
// (aggregate output qualified as v.agg), and the remaining relations attach
// around it with join/outer-join operators whose predicates may reference
// the view's group columns or -- with options.agg_pred_prob -- its
// aggregate output, optionally through constant arithmetic. Falls back to
// MakeRandomQuery when no view is drawn.
NodePtr MakeGeneralRandomQuery(const RandomQueryOptions& options, Rng* rng,
                               RandomQueryFeatures* features = nullptr);

}  // namespace gsopt

#endif  // GSOPT_ENUMERATE_RANDOM_QUERY_H_
