// The metamorphic fuzz harness: seeded generation of (query, data) cases
// over the paper's full query class, the oracle battery from oracles.h,
// and on failure delta-debugging + artifact emission. The gsopt_fuzz tool
// and the fuzz-labelled ctest smoke are thin wrappers around RunFuzz.
#ifndef GSOPT_TESTING_FUZZ_H_
#define GSOPT_TESTING_FUZZ_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "algebra/node.h"
#include "base/rng.h"
#include "base/status.h"
#include "enumerate/random_query.h"
#include "relational/catalog.h"
#include "testing/minimize.h"
#include "testing/oracles.h"

namespace gsopt::testing {

struct FuzzOptions {
  // Template for query generation; num_rels is drawn per case from
  // [min_rels, max_rels].
  RandomQueryOptions query;
  int min_rels = 2;
  int max_rels = 5;

  // Data generation: per-table row count in [min_rows, max_rows], value
  // domain [0, domain), per-table null fraction uniform in
  // [0, max_null_fraction].
  int min_rows = 0;
  int max_rows = 20;
  int64_t domain = 6;
  double max_null_fraction = 0.35;

  OracleOptions oracle;
  int minimize_rounds = 6;

  // Directory for minimized reproducers; empty disables artifacts.
  std::string artifact_dir;
  // Stop after this many distinct failing seeds.
  int max_failures = 5;
  // Stop early once this much wall time has elapsed (0 = no limit); the
  // nightly CI job uses this as its 10-minute budget.
  double time_budget_sec = 0.0;

  static FuzzOptions Default();  // general-class generation knobs
};

struct FuzzCase {
  uint64_t seed = 0;
  NodePtr query;
  Catalog catalog;
  RandomQueryFeatures features;
};

// Deterministic: the same seed and options always produce the same case.
FuzzCase MakeFuzzCase(uint64_t seed, const FuzzOptions& options);

struct FuzzStats {
  int cases = 0;
  int failures = 0;
  int skipped = 0;  // baseline over row budget
  size_t plans_checked = 0;
  size_t plans_skipped = 0;

  // Chaos-oracle accounting (zero unless oracle.run_chaos).
  size_t chaos_trials = 0;
  size_t chaos_faults = 0;
  size_t chaos_spills = 0;

  // Feature coverage (the acceptance gate: >=30% views, >=20% aggregated-
  // column predicates, >=30% WHERE filters).
  int with_view = 0;
  int with_agg_pred = 0;
  int with_distinct = 0;
  int with_dup_pair = 0;
  int with_complex_pred = 0;
  int with_outer_join = 0;
  int with_order_by = 0;
  int with_where = 0;

  double seconds = 0.0;
  std::vector<std::string> failure_dirs;  // artifacts written this run

  double Pct(int n) const { return cases == 0 ? 0.0 : 100.0 * n / cases; }
  std::string Summary() const;
};

// Runs seeds [seed_start, seed_start + num_seeds). Per-case progress and
// failures go to `log` (may be null). Returns non-OK only on harness
// errors; oracle failures are counted, minimized and written as artifacts.
StatusOr<FuzzStats> RunFuzz(uint64_t seed_start, int num_seeds,
                            const FuzzOptions& options, std::ostream* log);

}  // namespace gsopt::testing

#endif  // GSOPT_TESTING_FUZZ_H_
