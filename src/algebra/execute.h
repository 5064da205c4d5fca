// Interpreter: evaluates a logical expression tree against a catalog by
// invoking the executor kernels. This is the ground-truth semantics used by
// every equivalence property test and by the benchmark harnesses.
//
// Execution is governable: pass ExecuteOptions with a ResourceBudget and
// every row-producing operator checks it cooperatively, returning
// Status(kResourceExhausted) instead of materializing unbounded
// intermediate results or overrunning a deadline.
//
// Execution is observable: pass ExecuteOptions with an OperatorStats root
// and the interpreter mirrors the plan tree with a stats tree -- one node
// per operator, recording rows in/out, wall time and the kernels' hash
// build/probe counters -- which EXPLAIN ANALYZE (algebra/explain.h) joins
// against the cost model's estimates.
#ifndef GSOPT_ALGEBRA_EXECUTE_H_
#define GSOPT_ALGEBRA_EXECUTE_H_

#include "algebra/node.h"
#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/status.h"
#include "exec/eval.h"
#include "exec/stats.h"
#include "relational/catalog.h"

namespace gsopt {

// The execution policy shared by every layer that launches kernels: the
// low-level interpreter (ExecuteOptions below), the Session serving
// facade's per-session defaults (SessionOptions, core/session.h) and its
// per-call overrides. One struct, one merge function -- the per-layer
// option types embed or derive from this instead of re-declaring the
// fields and re-implementing field-by-field override logic.
struct ExecPolicy {
  // Optional cooperative budget (deadline / row / memory cap); not owned.
  ResourceBudget* budget = nullptr;
  // Optional deterministic fault injector (not owned). When set, kernels
  // probe it at allocation, spill I/O and budget-check points; see
  // base/fault_injector.h.
  FaultInjector* fault = nullptr;
  // Optional spill configuration (not owned). When set, hash joins,
  // aggregations and sorts that trip the memory cap degrade to the
  // out-of-core partitioned path instead of failing; see exec/eval.h.
  const exec::SpillConfig* spill = nullptr;
  // Serving-layer knob: when true, Session allocates an OperatorStats tree
  // inside the QueryResult it returns, so callers get per-operator actuals
  // without threading a stats pointer side channel. The low-level
  // interpreter ignores this (it has the explicit stats pointer instead).
  bool collect_stats = false;
};

// The one place per-call overrides meet per-session defaults. Pointer
// fields override when non-null; collect_stats is sticky (either layer can
// turn it on).
inline ExecPolicy MergeExecPolicy(ExecPolicy base, const ExecPolicy& call) {
  if (call.budget != nullptr) base.budget = call.budget;
  if (call.fault != nullptr) base.fault = call.fault;
  if (call.spill != nullptr) base.spill = call.spill;
  base.collect_stats = base.collect_stats || call.collect_stats;
  return base;
}

// Fluent With* setters over an embedded ExecPolicy, written once and mixed
// into every option struct that carries one (ExecuteOptions here,
// SessionOptions in core/session.h). The derived type exposes the policy
// via `policy()` and gets builders that return its own type, so chains
// keep working: ExecuteOptions{}.WithBudget(&b).WithStats(&s).
template <typename Derived>
struct ExecPolicyBuilder {
  Derived& WithBudget(ResourceBudget* b) {
    self().policy().budget = b;
    return self();
  }
  Derived& WithFault(FaultInjector* f) {
    self().policy().fault = f;
    return self();
  }
  Derived& WithSpill(const exec::SpillConfig* s) {
    self().policy().spill = s;
    return self();
  }
  Derived& WithCollectStats(bool b = true) {
    self().policy().collect_stats = b;
    return self();
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

// Interpreter options: the shared execution policy (inherited, so
// `options.budget` etc. keep reading naturally at kernel call sites) plus
// the interpreter-only knobs: the stats side channel and the two kernel
// modes the differential tests, fuzz oracles and benches pin. Session
// reads only the policy half, so serving always runs the optimized
// kernels with automatic bloom filtering.
struct ExecuteOptions : ExecPolicy, ExecPolicyBuilder<ExecuteOptions> {
  // Optional stats collection root (not owned). When set, Execute fills it
  // for the plan's root operator and appends one child per plan child.
  // Serving-layer callers should prefer ExecPolicy::collect_stats, which
  // returns an owned tree inside the QueryResult.
  exec::OperatorStats* stats = nullptr;
  // Kernel policy (exec/eval.h BatchMode). kAuto -- the default -- runs
  // the optimized batch kernels; kOff runs the reference evaluator
  // (serial, row-at-a-time, nested-loop joins: a testing mode). Results
  // are bag-equal across modes (the optimized-vs-reference oracle enforces
  // this); only row order may differ.
  exec::BatchMode batch = exec::BatchMode::kAuto;
  // Bloom-filter sideways-information-passing policy (exec/bloom.h
  // BloomMode). kAuto -- the default -- builds a build-side filter for
  // joins whose build/probe cardinality ratio makes early probe rejection
  // profitable; kOff pins every join filter-free; kForce always filters.
  // Results are bag-equal across modes (the bloom oracle enforces this).
  exec::BloomMode bloom = exec::BloomMode::kAuto;

  ExecPolicy& policy() { return *this; }
  const ExecPolicy& policy() const { return *this; }

  ExecuteOptions& WithStats(exec::OperatorStats* s) {
    stats = s;
    return *this;
  }
};

// Low-level entry point: executes an already-optimized (or hand-built)
// expression tree. Application code serving SQL should prefer
// gsopt::Session (core/session.h), which layers parsing, optimization and
// the plan cache on top of this and funnels back into it; Execute stays
// the ground-truth interpreter used by tests and kernels.
StatusOr<Relation> Execute(const NodePtr& node, const Catalog& catalog,
                           const ExecuteOptions& options = {});

// Executes both expressions and compares visible extensions (bag equality
// over qualified attribute names). Options (budget, stats) apply to both
// executions, so equivalence checks under a resource budget are governed
// rather than budget-blind.
StatusOr<bool> ExecutionEquivalent(const NodePtr& a, const NodePtr& b,
                                   const Catalog& catalog,
                                   const ExecuteOptions& options = {});

}  // namespace gsopt

#endif  // GSOPT_ALGEBRA_EXECUTE_H_
