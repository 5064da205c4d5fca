#include "testing/fuzz.h"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "relational/datagen.h"
#include "testing/artifact.h"

namespace gsopt::testing {

FuzzOptions FuzzOptions::Default() {
  FuzzOptions opt;
  // General-class generation: roughly half the cases carry a GROUP BY
  // view, and ON atoms above a view reference its aggregate often enough
  // to keep aggregated-column predicates above the 20% coverage gate.
  opt.query.view_prob = 0.5;
  opt.query.agg_pred_prob = 0.65;
  opt.query.distinct_prob = 0.3;
  opt.query.agg_arith_prob = 0.3;
  opt.query.dup_pair_prob = 0.15;
  opt.query.extra_atom_prob = 0.5;
  opt.query.loj_prob = 0.35;
  opt.query.foj_prob = 0.08;
  // Roughly a third of the cases carry a root ORDER BY, so the order
  // oracle and the sort enforcer's interaction with every other oracle
  // (TLP wrapping, plan caching, round trips) get steady coverage.
  opt.query.order_by_prob = 0.35;
  // Half the cases carry a root WHERE, so every oracle polices the
  // normalizer's conjunct push-down (preserved vs null-supplied sides,
  // filters above views, IS [NOT] NULL) on generated filters.
  opt.query.where_prob = 0.5;
  return opt;
}

FuzzCase MakeFuzzCase(uint64_t seed, const FuzzOptions& options) {
  FuzzCase fc;
  fc.seed = seed;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  RandomQueryOptions qopt = options.query;
  qopt.num_rels = static_cast<int>(
      rng.Uniform(options.min_rels, options.max_rels));
  fc.query = MakeGeneralRandomQuery(qopt, &rng, &fc.features);

  std::vector<std::string> cols;
  for (int c = 0; c < qopt.num_cols; ++c) {
    cols.push_back(std::string(1, static_cast<char>('a' + c)));
  }
  for (int i = 1; i <= qopt.num_rels; ++i) {
    RandomRelationOptions ropt;
    ropt.num_rows =
        static_cast<int>(rng.Uniform(options.min_rows, options.max_rows));
    ropt.domain = options.domain;
    ropt.null_fraction = rng.NextDouble() * options.max_null_fraction;
    std::string name = "r" + std::to_string(i);
    Relation rel = MakeRandomRelation(name, cols, ropt, &rng);
    GSOPT_CHECK(fc.catalog.Register(name, std::move(rel)).ok());
  }
  return fc;
}

std::string FuzzStats::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "fuzz: %d cases, %d failures, %d skipped | coverage: view %.1f%%, "
      "agg-pred %.1f%%, distinct %.1f%%, dup-pair %.1f%%, complex-pred "
      "%.1f%%, outer-join %.1f%%, order-by %.1f%%, where %.1f%% | %zu plans "
      "checked, %zu skipped | %.1fs (%.1f cases/s)",
      cases, failures, skipped, Pct(with_view), Pct(with_agg_pred),
      Pct(with_distinct), Pct(with_dup_pair), Pct(with_complex_pred),
      Pct(with_outer_join), Pct(with_order_by), Pct(with_where),
      plans_checked, plans_skipped, seconds,
      seconds > 0 ? cases / seconds : 0.0);
  std::string out = buf;
  if (chaos_trials > 0) {
    std::snprintf(buf, sizeof(buf),
                  " | chaos: %zu trials, %zu faults fired, %zu spilled runs",
                  chaos_trials, chaos_faults, chaos_spills);
    out += buf;
  }
  return out;
}

StatusOr<FuzzStats> RunFuzz(uint64_t seed_start, int num_seeds,
                            const FuzzOptions& options, std::ostream* log) {
  FuzzStats stats;
  auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  for (int i = 0; i < num_seeds; ++i) {
    if (options.time_budget_sec > 0 && elapsed() > options.time_budget_sec) {
      if (log != nullptr) {
        *log << "fuzz: time budget reached after " << stats.cases
             << " cases\n";
      }
      break;
    }
    uint64_t seed = seed_start + static_cast<uint64_t>(i);
    FuzzCase fc = MakeFuzzCase(seed, options);
    ++stats.cases;
    if (fc.features.has_view) ++stats.with_view;
    if (fc.features.has_agg_pred) ++stats.with_agg_pred;
    if (fc.features.has_distinct) ++stats.with_distinct;
    if (fc.features.has_dup_pair) ++stats.with_dup_pair;
    if (fc.features.has_complex_pred) ++stats.with_complex_pred;
    if (fc.features.has_outer_join) ++stats.with_outer_join;
    if (fc.features.has_order_by) ++stats.with_order_by;
    if (fc.features.has_where) ++stats.with_where;

    Rng oracle_rng(seed ^ 0xfeedface12345678ULL);
    GSOPT_ASSIGN_OR_RETURN(
        OracleOutcome outcome,
        CheckQuery(fc.query, fc.catalog, options.oracle, &oracle_rng));
    stats.plans_checked += outcome.plans_checked;
    stats.plans_skipped += outcome.plans_skipped;
    stats.chaos_trials += outcome.chaos_trials;
    stats.chaos_faults += outcome.chaos_faults;
    stats.chaos_spills += outcome.chaos_spills;
    if (outcome.skipped) {
      ++stats.skipped;
      continue;
    }
    if (!outcome.failed) continue;

    ++stats.failures;
    if (log != nullptr) {
      *log << "seed " << seed << ": " << outcome.ToString() << "\n";
    }

    MinimizeOptions mopt;
    mopt.oracle = options.oracle;
    mopt.max_rounds = options.minimize_rounds;
    GSOPT_ASSIGN_OR_RETURN(
        MinimizedCase minimized,
        Minimize(fc.query, fc.catalog, outcome.failure, mopt));
    if (log != nullptr) {
      *log << "  minimized: " << minimized.reductions << " reductions, "
           << minimized.query->BaseRels().size() << " relations"
           << (minimized.reproduced ? "" : " (NOT re-reproduced; unreduced)")
           << "\n";
    }

    if (!options.artifact_dir.empty()) {
      std::string dir =
          options.artifact_dir + "/seed" + std::to_string(seed);
      std::string note =
          "oracle: " + OracleKindName(minimized.failure.kind) + "\n" +
          "detail: " + minimized.failure.detail + "\n" + "reductions: " +
          std::to_string(minimized.reductions) +
          (minimized.reproduced ? "" : " (original failure did not reproduce "
                                       "under probe seeds; case unreduced)");
      GSOPT_RETURN_IF_ERROR(
          WriteRepro(dir, minimized.query, minimized.catalog, seed, note));
      stats.failure_dirs.push_back(dir);
      if (log != nullptr) *log << "  artifact: " << dir << "\n";
    }
    if (stats.failures >= options.max_failures) {
      if (log != nullptr) {
        *log << "fuzz: stopping after " << stats.failures << " failures\n";
      }
      break;
    }
  }
  stats.seconds = elapsed();
  return stats;
}

}  // namespace gsopt::testing
