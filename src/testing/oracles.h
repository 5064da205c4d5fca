// Composable correctness oracles for the metamorphic fuzz harness. Each
// oracle compares some transformation of a query against its syntactic
// (as-written) execution on the reference evaluator (BatchMode::kOff:
// serial, row-at-a-time, nested-loop joins), which is the repo's ground
// truth; the transformed side runs the optimized kernels:
//
//  * plan space   -- every enumerated association-tree plan bag-equals the
//                    syntactic result (the paper's Theorem 1 claim);
//  * degradation  -- every fallback-ladder rung (generalized, baseline,
//                    binary-only, syntactic) still answers correctly;
//  * columnar     -- the optimized kernels -- plain, spilling, faulted --
//                    reproduce the reference result;
//  * bloom        -- the same battery with the bloom-filter sideways-
//                    information-passing pass forced on (BloomMode::kForce):
//                    a filter may only ever skip work, never change an
//                    answer;
//  * order        -- for ORDER BY queries, the order-aware optimizer's
//                    plan, run on the reference and the optimized
//                    kernels, still satisfies the sort spec and
//                    bag-equals the baseline;
//  * TLP          -- partitioning any visible column c by `c <= k`,
//                    `c > k`, `c IS NULL` and unioning the three optimized
//                    partitions reproduces the unpartitioned result
//                    (ternary-logic partitioning: exactly one branch is
//                    TRUE per row under 3VL, so this stresses the
//                    null-padding semantics GS compensation depends on);
//  * round trip   -- emit SQL text, re-parse and re-bind it, and the bound
//                    tree bag-equals the original -- as written, through
//                    Optimize, and on the syntactic rung an expired
//                    budget forces (the ways Session serves it), output
//                    names and ORDER BY included;
//  * plan cache   -- running the query through a Session (which lifts its
//                    literals to parameter slots, optimizes the
//                    parameterized template once and re-instantiates it
//                    from the sharded plan cache) matches literal
//                    re-optimization: two instantiations differing only in
//                    a constant must share a template (the second MUST be
//                    a cache hit) and each must bag-equal its own
//                    syntactic execution.
//
// Budget-exhausted plan executions are skipped (counted), not failed, so
// one pathological cross product cannot wedge a fuzz run.
#ifndef GSOPT_TESTING_ORACLES_H_
#define GSOPT_TESTING_ORACLES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algebra/node.h"
#include "base/rng.h"
#include "base/status.h"
#include "relational/catalog.h"

namespace gsopt::testing {

enum class OracleKind {
  kPlanSpace,
  kDegradation,
  kTlp,
  kRoundTrip,
  kPlanCache,
  kColumnar,
  kBloom,
  kOrder,
  kChaos,
};

std::string OracleKindName(OracleKind k);

struct OracleOptions {
  bool run_plan_space = true;
  bool run_degradation = true;
  bool run_tlp = true;
  bool run_round_trip = true;
  bool run_plan_cache = true;
  // The forced-path battery (oracles.cc RunForcedPaths), run three ways.
  // Each re-executes the query on the optimized kernels -- plain,
  // memory-starved with spilling, and under seeded fault injection, where
  // a faulted trial may also end in a clean typed error -- and holds every
  // trial to the reference baseline's bag. The baseline runs
  // BatchMode::kOff (nested loops, no filter), so no optimized path ever
  // validates itself.
  //
  // Optimized-vs-reference: the battery as is, filter-free.
  bool run_columnar = true;
  // Bloom-on-vs-off: the battery with BloomMode::kForce on every path of
  // the hash-join core; a failed filter allocation must degrade to a
  // filter-free join, never a wrong answer.
  bool run_bloom = true;
  // Order-correctness oracle: for queries whose result carries an ORDER BY
  // (a root kSort, possibly under the final projection), runs the
  // order-aware optimizer's plan (enforcer removal over presorted scans)
  // on the reference row kernels and on the optimized kernels, and
  // asserts that each trial's output still satisfies the sort spec
  // (exec::CheckSorted) *and* bag-equals the baseline. This is the oracle that catches an enforcer removed on the
  // promise of an order nobody actually delivered.
  bool run_order = true;
  // Chaos oracle (opt-in; see --chaos in tools/gsopt_fuzz): re-executes
  // the query under a starvation-level memory cap (forcing the spill
  // path), then under deterministic fault injection at every site, and
  // asserts the robustness contract -- every trial yields either a
  // bag-correct result or a clean typed Status (kResourceExhausted /
  // kUnavailable), never a crash, leaked temp file, leaked memory charge,
  // or a poisoned plan-cache template.
  bool run_chaos = false;

  // Chaos knobs: operator-state memory cap for the spill trials; fault
  // period (one probe in `period` fires); number of distinct-seed faulted
  // trials per query.
  uint64_t chaos_memory_bytes = 16 * 1024;
  uint64_t chaos_fault_period = 3;
  int chaos_trials = 4;

  // Plan-space cap per query (enumeration truncates, never fails).
  size_t max_plans = 64;
  // Per-execution row budget; exhausting it skips that candidate.
  uint64_t max_rows_per_exec = 500000;

  // Test-only fault injection: applied to every result produced through
  // the *checked* path (optimized plans, forced-path trials, TLP partitions,
  // re-bound round trips) but never to the syntactic baseline. Lets the
  // harness's own failure -> minimize -> artifact path be exercised
  // deterministically without patching a kernel.
  std::function<void(Relation*)> mutate_checked_result;
};

// One oracle violation, with enough context to reproduce by hand.
struct OracleFailure {
  OracleKind kind = OracleKind::kPlanSpace;
  std::string detail;
};

struct OracleOutcome {
  // The whole case was abandoned: the syntactic baseline itself blew the
  // row budget (counted by the driver, never a failure).
  bool skipped = false;
  bool failed = false;
  OracleFailure failure;  // meaningful when `failed`

  // Work accounting for the driver's summary.
  size_t plans_checked = 0;
  size_t plans_skipped = 0;
  size_t oracles_run = 0;
  // Chaos-oracle accounting: trials executed, faults actually fired, and
  // trials that degraded to the out-of-core path.
  size_t chaos_trials = 0;
  size_t chaos_faults = 0;
  size_t chaos_spills = 0;

  std::string ToString() const;
};

// Runs every enabled oracle against `query` on `catalog`. `rng` drives the
// TLP oracle's column/pivot choice; determinism comes from the caller
// seeding it per case. Returns non-OK only for harness-level errors
// (oracle violations are reported in the outcome, not the status).
StatusOr<OracleOutcome> CheckQuery(const NodePtr& query,
                                   const Catalog& catalog,
                                   const OracleOptions& options, Rng* rng);

}  // namespace gsopt::testing

#endif  // GSOPT_TESTING_ORACLES_H_
