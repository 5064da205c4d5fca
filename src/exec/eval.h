// Executor kernels for every operator the paper uses:
// cartesian product, selection, projection, inner / left / right / full
// outer join, anti and semi join, outer union, generalized selection (GS,
// Definition 2.1), and MGOJ (the join core's matched pairs plus GS's
// resurrection pass, per the paper's remark that GS ~ MGOJ/GOJ
// operationally).
//
// Joins use a hash path on the equi-conjuncts of the predicate whose sides
// separate cleanly across the two inputs, with any residual conjuncts
// evaluated per candidate pair; otherwise they fall back to nested loops.
//
// Every kernel is fallible: user-reachable input mismatches (a projection
// or group-by naming an attribute the input does not carry, overlapping
// preserved groups, an unknown COUNT_PRESENT relation) return
// Status(kInvalidArgument) instead of aborting, and when an ExecContext
// carries a ResourceBudget the row-producing loops check it cooperatively
// and return Status(kResourceExhausted) mid-production rather than
// materializing an unbounded result. GSOPT_CHECK remains only for
// genuinely internal invariants.
#ifndef GSOPT_EXEC_EVAL_H_
#define GSOPT_EXEC_EVAL_H_

#include <set>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/fault_injector.h"
#include "base/status.h"
#include "exec/bloom.h"
#include "exec/stats.h"
#include "relational/expr.h"
#include "relational/relation.h"

namespace gsopt::exec {

// A preserved-relation spec for generalized selection: the set of base
// relation names forming one r_i of sigma*_p[r_1,...,r_n](r).
using PreservedGroup = std::set<std::string>;

// Out-of-core degradation. An ExecContext carrying a SpillConfig lets a
// hash join, aggregation or sort that trips the ResourceBudget memory cap
// move its state into temp-file runs and process them piecewise
// (exec/spill.h: fan-out and depth are fixed there). Without one, a memory
// trip surfaces as kResourceExhausted naming the memory cap.
struct SpillConfig {
  // Directory for temp runs; empty uses the system temp dir.
  std::string dir;
};

// Kernel policy. kAuto -- the default -- runs the optimized kernels:
// selection over a predicate bound once per call (exec/bind.h), the hash
// grouping feed and the hash-join core, in batches of rows. kOff
// runs the reference evaluator -- serial, row-at-a-time, every column
// resolved by name, every join as nested loops over Predicate::Satisfied --
// the ground truth the differential tests and fuzz oracles hold the
// optimized kernels to. kOff is quadratic in join inputs: a testing mode,
// not a serving one.
enum class BatchMode : uint8_t { kAuto = 0, kOff = 1 };

// Per-invocation execution context threaded into every kernel. Default
// constructed it is a no-op (unlimited budget, no stats), so direct kernel
// calls in tests and benches stay terse.
struct ExecContext {
  // Optional, not owned. A budget may be shared by concurrent queries:
  // ResourceBudget's probes are thread-safe.
  ResourceBudget* budget = nullptr;
  // When non-null, the kernel records its runtime counters (rows in/out,
  // hash build/probe behaviour, NULL-key skips, residual evaluations)
  // here. Null costs one pointer test per update site.
  OperatorStats* stats = nullptr;
  // Chaos harness hook: when non-null, kernels probe it at allocation,
  // spill-I/O and budget-check points (base/fault_injector.h).
  FaultInjector* fault = nullptr;
  // Non-null turns spilling on (see SpillConfig); null makes memory trips
  // fatal.
  const SpillConfig* spill = nullptr;
  // Optimized kernels or the reference evaluator (see BatchMode above).
  BatchMode batch = BatchMode::kAuto;
  // Bloom-filter sideways-information-passing policy for the hash-join
  // paths (exec/bloom.h). kAuto activates per join from the build/probe
  // cardinality ratio; kOff pins every join filter-free; kForce always
  // builds the filter when a hash path runs.
  BloomMode bloom = BloomMode::kAuto;

  Status ChargeRows(uint64_t n, const char* stage) const {
    if (budget == nullptr) return Status::OK();
    return budget->ChargeRows(n, stage);
  }
  Status Tick(const char* stage) const {
    if (fault != nullptr) {
      GSOPT_RETURN_IF_ERROR(fault->MaybeFail(FaultSite::kBudgetCheck, stage));
    }
    if (budget == nullptr) return Status::OK();
    return budget->CheckDeadline(stage);
  }
  // True under the reference evaluator (BatchMode::kOff).
  bool Reference() const { return batch == BatchMode::kOff; }
  // True when a hash join with these build/probe cardinalities should
  // build a bloom filter on its build side (exec/bloom.h BloomEligible).
  // Callers must still charge the filter's memory and degrade to
  // filter-off when the charge fails.
  bool Bloom(int64_t build_rows, int64_t probe_rows) const {
    return BloomEligible(bloom, build_rows, probe_rows);
  }
};

// MemoryReservation bound to an ExecContext: charges probe the alloc fault
// site and the budget's memory cap, and the destructor releases whatever
// was charged. One per operator, used by one thread; the budget behind it
// may be shared by concurrent queries.
class OpMemory {
 public:
  OpMemory() = default;
  explicit OpMemory(const ExecContext& ctx)
      : ctx_(&ctx), reservation_(ctx.budget) {}

  Status Charge(uint64_t n, const char* stage) {
    if (ctx_ != nullptr && ctx_->fault != nullptr) {
      GSOPT_RETURN_IF_ERROR(
          ctx_->fault->MaybeFail(FaultSite::kAlloc, stage));
    }
    return reservation_.Charge(n, stage);
  }
  void Release() { reservation_.Release(); }
  uint64_t bytes() const { return reservation_.bytes(); }

 private:
  const ExecContext* ctx_ = nullptr;
  MemoryReservation reservation_;
};

// A join predicate's one key/residual split: each equi-atom whose two
// sides separate across inputs a and b (each side evaluable over one
// input's schema) is a key pair, oriented a side first and kept in atom
// order; every other atom is residual.
struct HashPlan {
  std::vector<ScalarPtr> a_keys;
  std::vector<ScalarPtr> b_keys;
  std::vector<Atom> residual;

  bool usable() const { return !a_keys.empty(); }
};

HashPlan SplitJoinPredicate(const Predicate& p, const Schema& a,
                            const Schema& b);

StatusOr<Relation> Product(const Relation& a, const Relation& b,
                           const ExecContext& ctx = {});

// Keeps the input's row order.
StatusOr<Relation> Select(const Relation& r, const Predicate& p,
                          const ExecContext& ctx = {});

// Duplicate-preserving projection: output column i is named `out[i]` and
// sourced from `src[i]` (kInvalidArgument when the counts differ or a
// source is missing). Without a rename (src == out) the virtual schema
// keeps every base relation with at least one projected column; a rename
// drops every row id, since renamed outputs no longer correspond to
// base-relation provenance.
StatusOr<Relation> Project(const Relation& r,
                           const std::vector<Attribute>& src,
                           const std::vector<Attribute>& out,
                           const ExecContext& ctx = {});

// True when Project(r, src, out) would return r's rows unchanged: no
// rename, each source resolves to its own position in r's schema, and every
// relation of r's virtual schema keeps a column (so keeps its row ids).
bool IsIdentityProjection(const Relation& r,
                          const std::vector<Attribute>& src,
                          const std::vector<Attribute>& out);

StatusOr<Relation> InnerJoin(const Relation& a, const Relation& b,
                             const Predicate& p, const ExecContext& ctx = {});
StatusOr<Relation> LeftOuterJoin(const Relation& a, const Relation& b,
                                 const Predicate& p,
                                 const ExecContext& ctx = {});
StatusOr<Relation> RightOuterJoin(const Relation& a, const Relation& b,
                                  const Predicate& p,
                                  const ExecContext& ctx = {});
StatusOr<Relation> FullOuterJoin(const Relation& a, const Relation& b,
                                 const Predicate& p,
                                 const ExecContext& ctx = {});
// r_a |> r_b : tuples of a with no match in b (schema of a).
StatusOr<Relation> AntiJoin(const Relation& a, const Relation& b,
                            const Predicate& p, const ExecContext& ctx = {});
// Tuples of a with at least one match in b (schema of a).
StatusOr<Relation> SemiJoin(const Relation& a, const Relation& b,
                            const Predicate& p, const ExecContext& ctx = {});

// Outer union (paper §1.2): schema is the union of schemas (matched by
// qualified attribute name); rows padded with NULLs for missing attributes.
StatusOr<Relation> OuterUnion(const Relation& a, const Relation& b,
                              const ExecContext& ctx = {});

// Generalized selection sigma*_p[groups](r), Definition 2.1:
//   E' = sigma_p(r)  (+)_i  ( pi_{Ri,Vi}(r) - pi_{Ri,Vi}(sigma_p(r)) )
// Each group names the base relations of one preserved r_i; groups must be
// pairwise disjoint. The result has r's schema; resurrected tuples keep the
// group's columns/row-ids and are NULL elsewhere.
StatusOr<Relation> GeneralizedSelection(
    const Relation& r, const Predicate& p,
    const std::vector<PreservedGroup>& groups, const ExecContext& ctx = {});

// MGOJ[groups, p](a, b): binary modified generalized outer join; equal to
// GeneralizedSelection(Product(a, b), p, groups) except that a group inside
// one operand is preserved even when the other operand is empty. The join
// core yields the matched pairs; GS's resurrection pass compensates each
// group from the operand that holds it, so only a group split across both
// operands materializes the product.
StatusOr<Relation> Mgoj(const Relation& a, const Relation& b,
                        const Predicate& p,
                        const std::vector<PreservedGroup>& groups,
                        const ExecContext& ctx = {});

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_EVAL_H_
