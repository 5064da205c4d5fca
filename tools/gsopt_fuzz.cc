// gsopt_fuzz: metamorphic differential-testing driver over the paper's
// full query class. Generates seeded random (query, data) cases -- GROUP
// BY views, aggregated-column predicates, WHERE filters, outer joins,
// nulls -- and checks
// the plan-space / degradation / TLP / SQL-round-trip / plan-cache /
// columnar / bloom / order oracles on each (the plan-cache oracle runs
// every case through a gsopt::Session, validating that cached
// parameterized templates re-instantiate to exactly what literal
// re-optimization produces; the columnar and bloom oracles run one
// forced-path battery -- plain, spilling, faulted -- against the
// reference-evaluator baseline (BatchMode::kOff: row-at-a-time,
// nested-loop joins), filter-free and with bloom filters forced on; the
// order oracle re-checks ORDER BY queries through the order-aware
// optimizer's plan, on the reference and the optimized kernels);
// failures are delta-debugged to minimal reproducers and written as
// self-contained .sql + CSV artifacts.
//
//   gsopt_fuzz --seeds=500                      # CI gate
//   gsopt_fuzz --seeds=100000 --time-budget-sec=600 --artifacts=out/
//   gsopt_fuzz --seeds=30 --inject-fault        # harness self-test: every
//                                               # checked result is mutated,
//                                               # so every oracle must fire
//   gsopt_fuzz --seeds=500 --chaos              # chaos mode: re-run every
//                                               # case memory-starved (spill
//                                               # path) and under seeded
//                                               # fault injection
//
// Exit codes: 0 clean; 1 oracle failures or coverage gate missed; 2 bad
// usage; 3 harness error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "testing/fuzz.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage() {
  std::cerr <<
      "usage: gsopt_fuzz [options]\n"
      "  --seeds=N             cases to run (default 500)\n"
      "  --seed-start=K        first seed (default 1)\n"
      "  --artifacts=DIR       write minimized reproducers under DIR\n"
      "  --time-budget-sec=S   stop early after S seconds of fuzzing\n"
      "  --max-failures=N      stop after N failing seeds (default 5)\n"
      "  --max-rels=N          relations per query upper bound (default 5)\n"
      "  --max-rows=N          rows per table upper bound (default 20)\n"
      "  --max-plans=N         plan-space cap per case (default 64)\n"
      "  --view-prob=P         GROUP BY view probability (default 0.5)\n"
      "  --inject-fault        mutate every checked result (self-test)\n"
      "  --no-columnar         skip the optimized-vs-reference oracle\n"
      "  --no-bloom            skip the bloom-filter-on-vs-off oracle\n"
      "  --no-order            skip the ORDER BY correctness oracle\n"
      "  --order-by-prob=P     root ORDER BY probability (default 0.35)\n"
      "  --chaos               run the chaos oracle (spill + fault injection)\n"
      "  --chaos-period=N      fire one injected fault per N probes (default 3)\n"
      "  --chaos-memory=BYTES  operator-state cap for spill trials (default 16384)\n"
      "  --chaos-trials=N      faulted trials per case (default 4)\n"
      "  --no-enforce-coverage skip the view/agg-pred/WHERE coverage gates\n"
      "  --quiet               suppress per-failure logging\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using gsopt::testing::FuzzOptions;
  FuzzOptions opt = FuzzOptions::Default();
  uint64_t seed_start = 1;
  int seeds = 500;
  bool inject_fault = false;
  bool enforce_coverage = true;
  bool quiet = false;
  double min_view_pct = 30.0, min_agg_pred_pct = 20.0, min_where_pct = 30.0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "seeds", &v)) {
      seeds = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "seed-start", &v)) {
      seed_start = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "artifacts", &v)) {
      opt.artifact_dir = v;
    } else if (ParseFlag(argv[i], "time-budget-sec", &v)) {
      opt.time_budget_sec = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "max-failures", &v)) {
      opt.max_failures = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "max-rels", &v)) {
      opt.max_rels = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "max-rows", &v)) {
      opt.max_rows = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "max-plans", &v)) {
      opt.oracle.max_plans = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "view-prob", &v)) {
      opt.query.view_prob = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "order-by-prob", &v)) {
      opt.query.order_by_prob = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "chaos-period", &v)) {
      opt.oracle.chaos_fault_period = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "chaos-memory", &v)) {
      opt.oracle.chaos_memory_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "chaos-trials", &v)) {
      opt.oracle.chaos_trials = std::atoi(v.c_str());
    } else if (std::strcmp(argv[i], "--no-columnar") == 0) {
      opt.oracle.run_columnar = false;
    } else if (std::strcmp(argv[i], "--no-bloom") == 0) {
      opt.oracle.run_bloom = false;
    } else if (std::strcmp(argv[i], "--no-order") == 0) {
      opt.oracle.run_order = false;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      opt.oracle.run_chaos = true;
    } else if (std::strcmp(argv[i], "--inject-fault") == 0) {
      inject_fault = true;
    } else if (std::strcmp(argv[i], "--no-enforce-coverage") == 0) {
      enforce_coverage = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return Usage();
    }
  }
  if (seeds <= 0 || opt.max_rels < opt.min_rels) return Usage();

  if (inject_fault) {
    // Corrupt every result that flows through a checked path (never the
    // syntactic baseline): drop a row when possible, else add one. The
    // oracles must catch this on essentially every seed, which exercises
    // the whole failure -> minimize -> artifact pipeline.
    opt.oracle.mutate_checked_result = [](gsopt::Relation* r) {
      if (r->NumRows() > 0) {
        gsopt::Relation reduced(r->schema(), r->vschema());
        for (int64_t i = 0; i + 1 < r->NumRows(); ++i) reduced.Add(r->row(i));
        *r = std::move(reduced);
      } else {
        r->AddNullRow();
      }
    };
  }

  auto stats = gsopt::testing::RunFuzz(seed_start, seeds, opt,
                                       quiet ? nullptr : &std::cerr);
  if (!stats.ok()) {
    std::cerr << "harness error: " << stats.status().ToString() << "\n";
    return 3;
  }
  std::cout << stats->Summary() << "\n";

  int rc = 0;
  if (stats->failures > 0) {
    std::cerr << stats->failures << " failing seed(s)";
    if (!stats->failure_dirs.empty()) {
      std::cerr << "; artifacts under " << opt.artifact_dir;
    }
    std::cerr << "\n";
    rc = 1;
  }
  if (enforce_coverage && !inject_fault) {
    if (stats->Pct(stats->with_view) < min_view_pct) {
      std::cerr << "coverage gate: GROUP BY views " << stats->Pct(stats->with_view)
                << "% < " << min_view_pct << "%\n";
      rc = 1;
    }
    if (stats->Pct(stats->with_agg_pred) < min_agg_pred_pct) {
      std::cerr << "coverage gate: aggregated-column predicates "
                << stats->Pct(stats->with_agg_pred) << "% < "
                << min_agg_pred_pct << "%\n";
      rc = 1;
    }
    if (stats->Pct(stats->with_where) < min_where_pct) {
      std::cerr << "coverage gate: WHERE filters "
                << stats->Pct(stats->with_where) << "% < " << min_where_pct
                << "%\n";
      rc = 1;
    }
  }
  return rc;
}
