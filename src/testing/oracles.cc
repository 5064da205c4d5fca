#include "testing/oracles.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <utility>

#include "algebra/execute.h"
#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/spill_file.h"
#include "core/optimizer.h"
#include "core/session.h"
#include "exec/sort.h"
#include "sql/binder.h"
#include "testing/sql_emit.h"

namespace gsopt::testing {

namespace {

std::string Truncate(std::string s, size_t cap = 400) {
  if (s.size() > cap) {
    s.resize(cap);
    s += "...";
  }
  return s;
}

// Canonical per-row keys over the visible extension only (columns in
// qualified-name order, virtual attributes ignored), so results from plans
// with different output column orders can be unioned and compared as
// multisets -- the same notion of equality as Relation::BagEquals.
std::vector<std::string> CanonicalRowKeys(const Relation& r) {
  std::vector<std::pair<std::string, int>> order;
  for (int i = 0; i < r.schema().size(); ++i) {
    order.push_back({r.schema().attr(i).Qualified(), i});
  }
  std::sort(order.begin(), order.end());
  std::vector<std::string> keys;
  keys.reserve(static_cast<size_t>(r.NumRows()));
  for (const Tuple& t : r.rows()) {
    std::string key;
    for (const auto& [name, idx] : order) {
      const Value& v = t.values[static_cast<size_t>(idx)];
      key += std::to_string(static_cast<int>(v.type()));
      key += ':';
      key += v.ToString();
      key += '|';
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

// Locates a root ORDER BY contract -- a kSort at the root or directly
// under the final projection -- and maps its keys through the projection's
// rename so the spec resolves against the query's OUTPUT schema. Returns
// false when there is no root sort, or when the projection drops a sort
// key (the contract is then unverifiable from the outside).
bool RootSortContract(const NodePtr& q, exec::SortSpec* out) {
  if (q == nullptr) return false;
  const Node* proj = q->kind() == OpKind::kProject ? q.get() : nullptr;
  const NodePtr& below = proj != nullptr ? q->left() : q;
  if (below == nullptr || below->kind() != OpKind::kSort) return false;
  out->clear();
  for (const exec::SortKey& k : below->sort_spec()) {
    exec::SortKey mapped = k;
    if (proj != nullptr) {
      const auto& in = proj->projection();
      const auto& outs = proj->projection_out();
      bool found = false;
      for (size_t i = 0; i < in.size() && !found; ++i) {
        if (in[i] == k.attr) {
          mapped.attr = outs[i];
          found = true;
        }
      }
      if (!found) return false;
    }
    out->push_back(mapped);
  }
  return true;
}

bool AnySpilled(const exec::OperatorStats& s) {
  if (s.spilled) return true;
  for (const auto& c : s.children) {
    if (c != nullptr && AnySpilled(*c)) return true;
  }
  return false;
}

class OracleRunner {
 public:
  OracleRunner(const NodePtr& query, const Catalog& catalog,
               const OracleOptions& options, Rng* rng)
      : query_(query), catalog_(catalog), opt_(options), rng_(rng) {}

  StatusOr<OracleOutcome> Run();

 private:
  // Executes under a fresh row budget. kResourceExhausted surfaces to the
  // caller (which skips the candidate); other errors propagate. The
  // baseline runs the reference evaluator (BatchMode::kOff: serial,
  // row-at-a-time, every join as nested loops over the as-written tree)
  // -- the ground truth every oracle compares against -- while checked
  // candidates run the optimized kernels (the hash-join core, bound
  // selection, hash aggregation and bloom filters), so every oracle
  // differential-tests them too.
  StatusOr<Relation> Exec(const NodePtr& n,
                          exec::BatchMode batch = exec::BatchMode::kOff) {
    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    ExecuteOptions eo;
    eo.budget = &budget;
    eo.batch = batch;
    return Execute(n, catalog_, eo);
  }

  // Executes a candidate whose result flows into a comparison, on the
  // optimized kernels: applies the fault-injection hook (when configured)
  // so harness self-tests can fake a wrong answer on every checked path.
  StatusOr<Relation> ExecChecked(const NodePtr& n) {
    GSOPT_ASSIGN_OR_RETURN(Relation r, Exec(n, exec::BatchMode::kAuto));
    if (opt_.mutate_checked_result) opt_.mutate_checked_result(&r);
    return r;
  }

  void Fail(OracleKind kind, std::string detail) {
    if (outcome_.failed) return;  // first failure wins
    outcome_.failed = true;
    outcome_.failure = OracleFailure{kind, Truncate(std::move(detail))};
  }

  // True if the status is a budget skip (counted); false propagates/fails.
  bool Skipped(const Status& s) {
    if (s.code() == StatusCode::kResourceExhausted) {
      ++outcome_.plans_skipped;
      return true;
    }
    return false;
  }

  void RunPlanSpace();
  void RunDegradation();
  void RunTlp();
  void RunRoundTrip();
  void RunPlanCache();
  void RunForcedPaths(OracleKind kind, const std::string& label,
                      exec::BloomMode bloom);
  void RunOrder();
  void RunChaos();

  const NodePtr& query_;
  const Catalog& catalog_;
  const OracleOptions& opt_;
  Rng* rng_;
  Relation baseline_;
  OracleOutcome outcome_;
};

void OracleRunner::RunPlanSpace() {
  ++outcome_.oracles_run;
  QueryOptimizer optimizer(catalog_);
  OptimizeOptions oo;
  oo.mode = EnumMode::kGeneralized;
  oo.prune = false;  // the full space, not just the DP frontier
  oo.max_plans = opt_.max_plans;
  auto space = optimizer.EnumeratePlanSpace(query_, oo);
  if (!space.ok()) {
    Fail(OracleKind::kPlanSpace,
         "plan-space enumeration failed: " + space.status().ToString());
    return;
  }
  for (size_t i = 0; i < space->plans.size(); ++i) {
    auto got = ExecChecked(space->plans[i].expr);
    if (!got.ok()) {
      if (Skipped(got.status())) continue;
      Fail(OracleKind::kPlanSpace, "plan " + std::to_string(i) +
                                       " failed to execute: " +
                                       got.status().ToString() + " plan=" +
                                       space->plans[i].expr->ToString());
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(OracleKind::kPlanSpace,
           "plan " + std::to_string(i) + "/" +
               std::to_string(space->plans.size()) +
               " diverges from the syntactic result; plan=" +
               space->plans[i].expr->ToString());
      return;
    }
  }
}

void OracleRunner::RunDegradation() {
  ++outcome_.oracles_run;
  QueryOptimizer optimizer(catalog_);
  auto check_best = [&](const OptimizeOptions& oo, const std::string& label) {
    auto result = optimizer.Optimize(query_, oo);
    if (!result.ok()) {
      Fail(OracleKind::kDegradation,
           label + " rung failed to optimize: " + result.status().ToString());
      return false;
    }
    auto got = ExecChecked(result->best.expr);
    if (!got.ok()) {
      if (Skipped(got.status())) return true;
      Fail(OracleKind::kDegradation,
           label + " rung plan failed to execute: " + got.status().ToString() +
               " plan=" + result->best.expr->ToString());
      return false;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(OracleKind::kDegradation,
           label + " rung plan diverges from the syntactic result; plan=" +
               result->best.expr->ToString());
      return false;
    }
    return true;
  };

  for (EnumMode mode :
       {EnumMode::kGeneralized, EnumMode::kBaseline, EnumMode::kBinaryOnly}) {
    OptimizeOptions oo;
    oo.mode = mode;
    oo.max_plans = std::max<size_t>(opt_.max_plans, 16);
    if (!check_best(oo, EnumModeName(mode))) return;
  }
  // The terminal rung, reached the way production reaches it: a budget
  // that expires immediately forces the syntactic fallback.
  ResourceBudget expired;
  expired.WithDeadlineAfter(std::chrono::microseconds(0));
  OptimizeOptions oo;
  oo.budget = &expired;
  oo.fallback = true;
  check_best(oo, "syntactic");
}

void OracleRunner::RunTlp() {
  ++outcome_.oracles_run;
  if (baseline_.schema().size() == 0) return;

  // Random visible column c and pivot k (drawn from c's actual values when
  // any are non-null). Under 3VL exactly one of `c <= k`, `c > k`,
  // `c IS NULL` holds per row, so the three partitions tile the result.
  int col = static_cast<int>(
      rng_->Uniform(0, static_cast<int64_t>(baseline_.schema().size()) - 1));
  const Attribute& attr = baseline_.schema().attr(col);
  std::vector<const Value*> non_null;
  for (const Tuple& t : baseline_.rows()) {
    const Value& v = t.values[static_cast<size_t>(col)];
    if (!v.is_null()) non_null.push_back(&v);
  }
  Value pivot = Value::Int(0);
  if (!non_null.empty()) {
    pivot = *non_null[static_cast<size_t>(
        rng_->Uniform(0, static_cast<int64_t>(non_null.size()) - 1))];
  }

  auto branch = [&](CmpOp op) {
    Atom a;
    a.lhs = Scalar::Column(attr.rel, attr.name);
    a.op = op;
    a.rhs = Scalar::Const(pivot);
    return Node::Select(query_, Predicate(a));
  };
  NodePtr parts[3] = {branch(CmpOp::kLe), branch(CmpOp::kGt),
                      Node::Select(query_, Predicate(MakeIsNullAtom(
                                               attr.rel, attr.name,
                                               /*negated=*/false)))};
  const char* part_names[3] = {"p", "NOT p", "p IS NULL"};

  // Each partition runs through the full optimizer (the added selection
  // perturbs normalization and enumeration), then the union of the three
  // must tile the unpartitioned baseline.
  QueryOptimizer optimizer(catalog_);
  std::vector<std::string> united;
  for (int i = 0; i < 3; ++i) {
    OptimizeOptions oo;
    oo.max_plans = std::max<size_t>(opt_.max_plans, 16);
    auto result = optimizer.Optimize(parts[i], oo);
    if (!result.ok()) {
      Fail(OracleKind::kTlp,
           std::string("partition ") + part_names[i] + " on " +
               attr.Qualified() + " failed to optimize: " +
               result.status().ToString());
      return;
    }
    auto got = ExecChecked(result->best.expr);
    if (!got.ok()) {
      if (Skipped(got.status())) return;  // cannot tile without all three
      Fail(OracleKind::kTlp, std::string("partition ") + part_names[i] +
                                 " failed to execute: " +
                                 got.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    std::vector<std::string> keys = CanonicalRowKeys(*got);
    united.insert(united.end(), keys.begin(), keys.end());
  }
  std::vector<std::string> expected = CanonicalRowKeys(baseline_);
  std::sort(united.begin(), united.end());
  std::sort(expected.begin(), expected.end());
  if (united != expected) {
    Fail(OracleKind::kTlp,
         "TLP partitions on " + attr.Qualified() + " (pivot " +
             pivot.ToString() + ") union to " +
             std::to_string(united.size()) + " rows, expected " +
             std::to_string(expected.size()) +
             " (or same count, different rows)");
  }
}

void OracleRunner::RunRoundTrip() {
  auto emitted = EmitSql(query_, catalog_);
  if (!emitted.ok()) {
    if (emitted.status().code() == StatusCode::kUnimplemented) {
      return;  // outside the SQL surface; not an error
    }
    Fail(OracleKind::kRoundTrip,
         "SQL emission failed: " + emitted.status().ToString());
    return;
  }
  ++outcome_.oracles_run;
  auto bound = sql::ParseAndBind(emitted->sql, catalog_);
  if (!bound.ok()) {
    Fail(OracleKind::kRoundTrip, "emitted SQL failed to re-bind: " +
                                     bound.status().ToString() + " sql=" +
                                     emitted->sql);
    return;
  }
  auto expected = Exec(emitted->reference);
  auto got = ExecChecked(*bound);
  if (!expected.ok() || !got.ok()) {
    const Status& bad = !expected.ok() ? expected.status() : got.status();
    if (Skipped(bad)) return;
    Fail(OracleKind::kRoundTrip,
         "round-trip execution failed: " + bad.ToString() + " sql=" +
             emitted->sql);
    return;
  }
  ++outcome_.plans_checked;
  if (!Relation::BagEquals(*expected, *got)) {
    Fail(OracleKind::kRoundTrip,
         "re-bound SQL diverges from the original tree; sql=" + emitted->sql);
    return;
  }
  // When the emitted SQL carried an ORDER BY, bag equality is not the whole
  // contract: the re-bound tree's execution must also deliver the order.
  exec::SortSpec spec;
  const bool ordered = emitted->has_order_by && RootSortContract(*bound, &spec);
  auto check_order = [&](const Relation& rows, const std::string& what) {
    if (!ordered) return true;
    Status s = exec::CheckSorted(rows, spec);
    if (s.ok()) return true;
    Fail(OracleKind::kRoundTrip, what + " violates its ORDER BY: " +
                                     s.ToString() + " sql=" + emitted->sql);
    return false;
  };
  if (!check_order(*got, "re-bound SQL")) return;

  // Serve the re-bound tree the way Session does: through Optimize, and
  // again under an already-expired budget, which drops to the syntactic
  // rung. Either plan must answer as the original does, output names
  // included, and deliver its ORDER BY.
  QueryOptimizer optimizer(catalog_);
  ResourceBudget expired;
  expired.WithDeadlineAfter(std::chrono::microseconds(0));
  OptimizeOptions syntactic;
  syntactic.budget = &expired;
  syntactic.fallback = true;
  const std::pair<const char*, OptimizeOptions> servings[] = {
      {"optimized", OptimizeOptions{}}, {"syntactic-rung", syntactic}};
  for (const auto& [label, oo] : servings) {
    const std::string what = std::string(label) + " re-bound SQL";
    auto result = optimizer.Optimize(*bound, oo);
    if (!result.ok()) {
      Fail(OracleKind::kRoundTrip, what + " failed to optimize: " +
                                       result.status().ToString() +
                                       " sql=" + emitted->sql);
      return;
    }
    auto served = ExecChecked(result->best.expr);
    if (!served.ok()) {
      if (Skipped(served.status())) continue;
      Fail(OracleKind::kRoundTrip, what + " failed to execute: " +
                                       served.status().ToString() +
                                       " sql=" + emitted->sql);
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(*expected, *served)) {
      Fail(OracleKind::kRoundTrip,
           what + " diverges from the original tree; plan=" +
               result->best.expr->ToString() + " sql=" + emitted->sql);
      return;
    }
    if (!check_order(*served, what)) return;
  }
}

void OracleRunner::RunPlanCache() {
  ++outcome_.oracles_run;
  if (baseline_.schema().size() == 0) return;

  // Two instantiations of the same query shape, differing only in the
  // pivot constant of an added selection. The session lifts both pivots
  // to the same parameter slot, so they share a fingerprint: the first
  // Run optimizes and caches the template, the second MUST hit and
  // re-instantiate it -- and each must still bag-equal its own syntactic
  // (literal, un-cached) execution.
  int col = static_cast<int>(
      rng_->Uniform(0, static_cast<int64_t>(baseline_.schema().size()) - 1));
  const Attribute& attr = baseline_.schema().attr(col);
  std::vector<const Value*> non_null;
  for (const Tuple& t : baseline_.rows()) {
    const Value& v = t.values[static_cast<size_t>(col)];
    if (!v.is_null()) non_null.push_back(&v);
  }
  Value pivots[2] = {Value::Int(0), Value::Int(1)};
  for (int i = 0; i < 2 && !non_null.empty(); ++i) {
    pivots[i] = *non_null[static_cast<size_t>(
        rng_->Uniform(0, static_cast<int64_t>(non_null.size()) - 1))];
  }

  Session session(catalog_,
                  SessionOptions{}.WithMaxPlans(
                      std::max<size_t>(opt_.max_plans, 16)));
  for (int i = 0; i < 2; ++i) {
    Atom a;
    a.lhs = Scalar::Column(attr.rel, attr.name);
    a.op = CmpOp::kLe;
    a.rhs = Scalar::Const(pivots[i]);
    NodePtr wrapped = Node::Select(query_, Predicate(a));

    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    auto got = session.Run(wrapped, ExecuteOptions{}.WithBudget(&budget));
    if (!got.ok()) {
      if (Skipped(got.status())) return;
      Fail(OracleKind::kPlanCache,
           "session run " + std::to_string(i) + " (pivot " +
               pivots[i].ToString() +
               ") failed: " + got.status().ToString());
      return;
    }
    if (i == 1 && !got->cache_hit) {
      Fail(OracleKind::kPlanCache,
           "second literal instantiation (pivot " + pivots[1].ToString() +
               " after " + pivots[0].ToString() +
               ") missed the plan cache; fingerprinting is not "
               "literal-invariant for plan=" + got->plan->ToString());
      return;
    }
    Relation checked = std::move(got->rows);
    if (opt_.mutate_checked_result) opt_.mutate_checked_result(&checked);
    auto expected = Exec(wrapped);
    if (!expected.ok()) {
      if (Skipped(expected.status())) return;
      Fail(OracleKind::kPlanCache,
           "syntactic reference failed: " + expected.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(*expected, checked)) {
      Fail(OracleKind::kPlanCache,
           std::string(i == 0 ? "cached template (cold)"
                              : "cache-hit re-instantiation") +
               " diverges from literal execution; pivot " +
               pivots[i].ToString() + " plan=" + got->plan->ToString());
      return;
    }
  }
}

// The forced-path battery behind the columnar and bloom oracles:
// re-executes the query with `bloom` on the optimized kernels -- plain,
// memory-starved with spilling, and under two seeded fault injections --
// and holds every trial to the reference baseline's
// bag (a faulted trial may instead end in a clean typed error), with the
// memory ledger unwound after every spilling or faulted trial.
void OracleRunner::RunForcedPaths(OracleKind kind, const std::string& label,
                                  exec::BloomMode bloom) {
  ++outcome_.oracles_run;

  // Results flow into comparisons, so the self-test mutation hook applies.
  auto exec_forced = [&](ResourceBudget* budget,
                         const exec::SpillConfig* spill,
                         FaultInjector* fault) -> StatusOr<Relation> {
    ExecuteOptions eo;
    eo.budget = budget;
    eo.spill = spill;
    eo.fault = fault;
    eo.bloom = bloom;
    GSOPT_ASSIGN_OR_RETURN(Relation r, Execute(query_, catalog_, eo));
    if (opt_.mutate_checked_result) opt_.mutate_checked_result(&r);
    return r;
  };
  auto check_bag = [&](const StatusOr<Relation>& got,
                       const std::string& trial) {
    if (!got.ok()) {
      if (Skipped(got.status())) return;
      Fail(kind, trial + " failed: " + got.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(kind, trial + " diverges from the reference result");
    }
  };
  auto ledger_clean = [&](const ResourceBudget& budget,
                          const std::string& trial) {
    if (budget.memory_charged() == 0) return true;
    Fail(kind, trial + " left " + std::to_string(budget.memory_charged()) +
                   " byte(s) charged to the memory ledger");
    return false;
  };

  // Serial optimized kernels.
  {
    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    check_bag(exec_forced(&budget, nullptr, nullptr), label + " (serial)");
    if (outcome_.failed) return;
  }

  // Memory-starved with spilling: hash joins, aggregation and the external
  // sort must degrade out of core and still tile the baseline, and a bloom
  // filter whose allocation fails under the squeeze must leave a correct
  // filter-free join.
  {
    exec::SpillConfig spill;
    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    budget.WithMaxMemory(opt_.chaos_memory_bytes);
    auto got = exec_forced(&budget, &spill, nullptr);
    const std::string trial = label + " (spilling)";
    if (!ledger_clean(budget, trial)) return;
    if (got.ok()) {
      check_bag(got, trial);
      if (outcome_.failed) return;
    } else {
      // Row caps / deadlines (kResourceExhausted without "memory cap")
      // skip as everywhere else. A memory-cap report fails: spilling must
      // engage, not trip.
      const Status& st = got.status();
      const bool typed_skip =
          st.code() == StatusCode::kResourceExhausted &&
          st.message().find("memory cap") == std::string::npos;
      if (!typed_skip) {
        Fail(kind, trial + " failed: " + st.ToString());
        return;
      }
      ++outcome_.plans_skipped;
    }
  }

  // Faulted trials, contract as in chaos: a bag-correct success or a clean
  // typed failure -- a fault landing on a filter's allocation degrades to
  // a filter-free join, an injected run-file write failure to a typed
  // error; never a wrong answer.
  for (int trial = 0; trial < 2; ++trial) {
    const uint64_t seed = static_cast<uint64_t>(
        rng_->Uniform(0, std::numeric_limits<int64_t>::max() - 1));
    FaultInjector::Options fo;
    fo.seed = seed;
    fo.period = opt_.chaos_fault_period;
    FaultInjector fault(fo);
    exec::SpillConfig spill;
    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    auto got = exec_forced(&budget, &spill, &fault);
    const std::string name = label + " fault seed " + std::to_string(seed);
    if (!ledger_clean(budget, name)) return;
    if (!got.ok()) {
      const StatusCode code = got.status().code();
      if (code == StatusCode::kResourceExhausted ||
          code == StatusCode::kUnavailable) {
        continue;  // clean typed failure: the contract holds
      }
      Fail(kind, name + " produced an unexpected error class: " +
                     got.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(kind, name + " returned success with an incorrect bag");
      return;
    }
  }
}

void OracleRunner::RunOrder() {
  // Queries without a root ORDER BY carry no order promise to check.
  exec::SortSpec spec;
  if (!RootSortContract(query_, &spec)) return;
  ++outcome_.oracles_run;

  // Reference row kernels, so the trial's row order is the plan's own.
  auto exec_ref = [&](const NodePtr& n) -> StatusOr<Relation> {
    GSOPT_ASSIGN_OR_RETURN(Relation r, Exec(n));
    if (opt_.mutate_checked_result) opt_.mutate_checked_result(&r);
    return r;
  };
  auto check_ordered = [&](const StatusOr<Relation>& got,
                           const std::string& label) {
    if (!got.ok()) {
      if (Skipped(got.status())) return;
      Fail(OracleKind::kOrder, label + " failed: " + got.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    Status s = exec::CheckSorted(*got, spec);
    if (!s.ok()) {
      Fail(OracleKind::kOrder,
           label + " violates the ORDER BY contract: " + s.ToString());
      return;
    }
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(OracleKind::kOrder, label + " diverges from the baseline bag");
    }
  };

  // Trial 0: the baseline itself (syntactic tree, nested-loop joins, the
  // sort enforcer intact) must satisfy its own ORDER BY.
  {
    Status s = exec::CheckSorted(baseline_, spec);
    if (!s.ok()) {
      Fail(OracleKind::kOrder,
           "syntactic baseline violates its own ORDER BY: " + s.ToString());
      return;
    }
  }

  // Trials 1 and 2: the order-aware optimizer's winning plan, on the
  // reference row kernels and then on the optimized kernels Session serves
  // with, since enforcer removal is claimed sound on both. These are the
  // trials that catch a kSort removed on the promise of an order nobody
  // actually delivered.
  QueryOptimizer optimizer(catalog_);
  OptimizeOptions oo;
  oo.max_plans = std::max<size_t>(opt_.max_plans, 16);
  auto result = optimizer.Optimize(query_, oo);
  if (!result.ok()) {
    Fail(OracleKind::kOrder,
         "optimization failed: " + result.status().ToString());
    return;
  }
  check_ordered(exec_ref(result->best.expr), "optimized plan");
  if (outcome_.failed) return;
  check_ordered(ExecChecked(result->best.expr),
                "optimized plan (optimized kernels)");
}

void OracleRunner::RunChaos() {
  ++outcome_.oracles_run;
  exec::SpillConfig spill;

  // The leak oracles that every trial -- successful or failed -- must
  // satisfy: no spill temp file survives an execution, and every byte
  // charged to the memory ledger was released (RAII hygiene).
  auto ledger_clean = [&](ResourceBudget* budget, const std::string& label) {
    const uint64_t files = SpillFile::LiveCount();
    if (files != 0) {
      Fail(OracleKind::kChaos,
           label + " leaked " + std::to_string(files) + " spill temp file(s)");
      return false;
    }
    if (budget->memory_charged() != 0) {
      Fail(OracleKind::kChaos,
           label + " left " + std::to_string(budget->memory_charged()) +
               " byte(s) charged to the memory ledger");
      return false;
    }
    return true;
  };

  // Trial 0: memory starved, no faults. The out-of-core path must
  // silently absorb the squeeze: same bag as the unconstrained baseline.
  {
    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    budget.WithMaxMemory(opt_.chaos_memory_bytes);
    exec::OperatorStats stats;
    ExecuteOptions eo;
    eo.budget = &budget;
    eo.stats = &stats;
    eo.spill = &spill;
    auto got = Execute(query_, catalog_, eo);
    ++outcome_.chaos_trials;
    if (!ledger_clean(&budget, "memory-starved trial")) return;
    if (AnySpilled(stats)) ++outcome_.chaos_spills;
    if (!got.ok()) {
      // Row caps and deadlines are legitimate skips. A memory-cap failure
      // with spilling enabled means degradation did not engage -- except
      // the documented irreducible case (a single DISTINCT group whose
      // dedup set alone exceeds the budget), which reports as such.
      if (got.status().code() == StatusCode::kResourceExhausted &&
          got.status().message().find("memory cap") == std::string::npos) {
        ++outcome_.plans_skipped;
        return;
      }
      Fail(OracleKind::kChaos,
           "memory-starved execution failed despite spilling: " +
               got.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(OracleKind::kChaos,
           "out-of-core result diverges from the in-memory baseline");
      return;
    }
  }

  // Faulted trials: deterministic seeds, every site armed. The contract:
  // bag-correct success OR a clean typed failure (kResourceExhausted /
  // kUnavailable) -- and the leak oracles hold either way.
  for (int trial = 0; trial < opt_.chaos_trials && !outcome_.failed;
       ++trial) {
    const uint64_t seed = static_cast<uint64_t>(rng_->Uniform(
        0, std::numeric_limits<int64_t>::max() - 1));
    FaultInjector::Options fo;
    fo.seed = seed;
    fo.period = opt_.chaos_fault_period;
    FaultInjector fault(fo);
    ResourceBudget budget;
    budget.WithMaxRows(opt_.max_rows_per_exec);
    budget.WithMaxMemory(opt_.chaos_memory_bytes);
    exec::OperatorStats stats;
    ExecuteOptions eo;
    eo.budget = &budget;
    eo.stats = &stats;
    eo.spill = &spill;
    eo.fault = &fault;
    auto got = Execute(query_, catalog_, eo);
    ++outcome_.chaos_trials;
    outcome_.chaos_faults += fault.fired_total();
    if (!ledger_clean(&budget, "fault seed " + std::to_string(seed))) return;
    if (AnySpilled(stats)) ++outcome_.chaos_spills;
    if (!got.ok()) {
      const StatusCode code = got.status().code();
      if (code == StatusCode::kResourceExhausted ||
          code == StatusCode::kUnavailable) {
        continue;  // clean typed failure: the contract holds
      }
      Fail(OracleKind::kChaos,
           "fault seed " + std::to_string(seed) +
               " produced an unexpected error class: " +
               got.status().ToString());
      return;
    }
    ++outcome_.plans_checked;
    if (!Relation::BagEquals(baseline_, *got)) {
      Fail(OracleKind::kChaos,
           "fault seed " + std::to_string(seed) +
               " returned success with an incorrect bag (" +
               std::to_string(fault.fired_total()) + " fault(s) fired)");
      return;
    }
  }
  if (outcome_.failed) return;

  // Plan-cache poisoning: a session miss whose execution fails under
  // injection must never install its template; the clean run after it
  // re-optimizes from scratch and must still be correct.
  {
    FaultInjector::Options fo;
    fo.seed = 1;
    fo.period = 1;
    fo.site_mask = FaultInjector::MaskOf({FaultSite::kBudgetCheck});
    FaultInjector fault(fo);
    Session session(catalog_,
                    SessionOptions{}
                        .WithMaxPlans(std::max<size_t>(opt_.max_plans, 16))
                        .WithRetries(0));
    ResourceBudget b1;
    b1.WithMaxRows(opt_.max_rows_per_exec);
    auto poisoned =
        session.Run(query_, ExecuteOptions{}.WithBudget(&b1).WithFault(&fault));
    ++outcome_.chaos_trials;
    outcome_.chaos_faults += fault.fired_total();
    // A plan with no kernel work never probes the budget site and may
    // legitimately succeed; the guard only binds when the miss failed.
    if (!poisoned.ok()) {
      ResourceBudget b2;
      b2.WithMaxRows(opt_.max_rows_per_exec);
      auto clean = session.Run(query_, ExecuteOptions{}.WithBudget(&b2));
      if (!clean.ok()) {
        if (!Skipped(clean.status())) {
          Fail(OracleKind::kChaos,
               "clean run after a failed cache miss failed: " +
                   clean.status().ToString());
        }
        return;
      }
      ++outcome_.plans_checked;
      if (!Relation::BagEquals(baseline_, clean->rows)) {
        Fail(OracleKind::kChaos,
             "clean run after a failed cache miss diverges from the "
             "baseline (poisoned plan-cache template)");
        return;
      }
    }
  }
}

StatusOr<OracleOutcome> OracleRunner::Run() {
  auto baseline = Exec(query_);
  if (!baseline.ok()) {
    if (baseline.status().code() == StatusCode::kResourceExhausted) {
      outcome_.skipped = true;
      return outcome_;
    }
    return baseline.status();  // generator bug or harness problem: loud
  }
  baseline_ = std::move(*baseline);

  if (opt_.run_plan_space && !outcome_.failed) RunPlanSpace();
  if (opt_.run_degradation && !outcome_.failed) RunDegradation();
  if (opt_.run_tlp && !outcome_.failed) RunTlp();
  if (opt_.run_round_trip && !outcome_.failed) RunRoundTrip();
  if (opt_.run_plan_cache && !outcome_.failed) RunPlanCache();
  if (opt_.run_columnar && !outcome_.failed) {
    RunForcedPaths(OracleKind::kColumnar, "columnar", exec::BloomMode::kOff);
  }
  if (opt_.run_bloom && !outcome_.failed) {
    RunForcedPaths(OracleKind::kBloom, "bloom", exec::BloomMode::kForce);
  }
  if (opt_.run_order && !outcome_.failed) RunOrder();
  if (opt_.run_chaos && !outcome_.failed) RunChaos();
  return outcome_;
}

}  // namespace

std::string OracleKindName(OracleKind k) {
  switch (k) {
    case OracleKind::kPlanSpace: return "plan-space";
    case OracleKind::kDegradation: return "degradation";
    case OracleKind::kTlp: return "tlp";
    case OracleKind::kRoundTrip: return "round-trip";
    case OracleKind::kPlanCache: return "plan-cache";
    case OracleKind::kColumnar: return "columnar";
    case OracleKind::kBloom: return "bloom";
    case OracleKind::kOrder: return "order";
    case OracleKind::kChaos: return "chaos";
  }
  return "?";
}

std::string OracleOutcome::ToString() const {
  if (skipped) return "skipped (baseline over budget)";
  if (failed) {
    return "FAIL [" + OracleKindName(failure.kind) + "] " + failure.detail;
  }
  std::string s = "ok (" + std::to_string(oracles_run) + " oracles, " +
                  std::to_string(plans_checked) + " plans checked, " +
                  std::to_string(plans_skipped) + " skipped";
  if (chaos_trials > 0) {
    s += "; chaos: " + std::to_string(chaos_trials) + " trials, " +
         std::to_string(chaos_faults) + " faults, " +
         std::to_string(chaos_spills) + " spilled";
  }
  return s + ")";
}

StatusOr<OracleOutcome> CheckQuery(const NodePtr& query,
                                   const Catalog& catalog,
                                   const OracleOptions& options, Rng* rng) {
  if (query == nullptr) return Status::InvalidArgument("null query");
  OracleRunner runner(query, catalog, options, rng);
  return runner.Run();
}

}  // namespace gsopt::testing
