// OperatorStats: per-operator runtime observability for the executor.
//
// Every kernel in exec/ records what it actually did -- rows consumed and
// produced, hash-table build/probe behaviour, NULL-key skips under 3VL,
// residual-predicate evaluations -- into the OperatorStats node carried by
// its ExecContext. The interpreter (algebra/execute.cc) mirrors the plan
// tree with a stats tree and adds wall-clock time per operator, so an
// executed plan can be rendered as EXPLAIN ANALYZE (algebra/explain.h)
// with estimated-vs-actual cardinalities and a q-error summary.
//
// Collection is strictly opt-in: an ExecContext whose stats pointer is
// null costs the kernels one pointer test per (batch of) counter updates,
// so governed production execution pays nothing measurable (see
// bench_gs_cost's BM_InnerJoinWithStats / BM_InnerJoin pair).
#ifndef GSOPT_EXEC_STATS_H_
#define GSOPT_EXEC_STATS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gsopt::exec {

struct OperatorStats {
  // Operator label, e.g. "LOJ" or "scan r1"; filled by whoever builds the
  // tree (the interpreter uses OpKindName, direct kernel callers may leave
  // it empty).
  std::string op;

  // Universal counters (every kernel).
  uint64_t rows_in = 0;    // input tuples consumed (both sides for binaries)
  uint64_t rows_out = 0;   // output tuples produced

  // Row batches the optimized kernels processed (kBatchRows rows each,
  // exec/join_internal.h; build and probe batches both, for joins). Zero
  // under the reference evaluator.
  uint64_t batches = 0;

  // Hash-path counters (join kernels; zero on the nested-loop path).
  bool hash_path = false;
  uint64_t build_rows = 0;      // tuples inserted into the hash table
  uint64_t probe_rows = 0;      // probe-side tuples hashed
  uint64_t max_bucket = 0;      // largest bucket chain seen during build
  uint64_t null_key_skips = 0;  // rows skipped because an equi-key was NULL
  uint64_t residual_evals = 0;  // residual-predicate evaluations

  // Bloom-SIP counters (exec/bloom.h): set when the join built a
  // build-side filter and consulted it before probe lookups (or, on the
  // spill path, before probe rows were partitioned to disk). A reject is a
  // definite non-match skipped without touching the table; a false
  // positive is a filter pass that then missed the table.
  bool bloom = false;
  uint64_t bloom_checks = 0;
  uint64_t bloom_rejects = 0;
  uint64_t bloom_false_positives = 0;

  // Sort counters (exec/sort.cc): `sort_rows` counts rows sorted,
  // `sort_runs` spilled runs when the sort went external and
  // `sort_merge_passes` extra fan-in-limited merge rounds past the first.
  uint64_t sort_rows = 0;
  uint64_t sort_runs = 0;
  uint64_t sort_merge_passes = 0;

  // Out-of-core degradation counters (exec/spill.cc): set when the memory
  // cap tripped and the operator fell back to temp-file partitioning.
  bool spilled = false;
  uint64_t spill_partitions = 0;     // partition runs written
  uint64_t spill_bytes_written = 0;  // bytes staged to temp files
  uint64_t spill_bytes_read = 0;     // bytes read back
  uint64_t spill_recursions = 0;     // repartitioning rounds past the first
  uint64_t spill_chunks = 0;         // block-chunk fallback rounds (skew)

  // Wall-clock time, inclusive of children (filled by the interpreter;
  // zero for direct kernel calls).
  std::chrono::nanoseconds wall{0};

  // Cost-model row estimate for this operator, joined in by EXPLAIN
  // ANALYZE; negative = not estimated.
  double est_rows = -1.0;

  std::vector<std::unique_ptr<OperatorStats>> children;

  OperatorStats* AddChild(std::string op_name) {
    children.push_back(std::make_unique<OperatorStats>());
    children.back()->op = std::move(op_name);
    return children.back().get();
  }

  // Adds another node's flat counters into this one: kernels count into a
  // private scratch node and merge it once they succeed, so an attempt
  // that fails or degrades (a spilled join or aggregation) leaves no
  // partial counters. Children, wall time and estimates are not merged
  // (scratch nodes have none).
  void MergeCountersFrom(const OperatorStats& o);

  // Wall time minus the children's wall time (the operator's own work).
  std::chrono::nanoseconds SelfWall() const {
    std::chrono::nanoseconds kids{0};
    for (const auto& c : children) kids += c->wall;
    return wall > kids ? wall - kids : std::chrono::nanoseconds{0};
  }

  // q-error of the cardinality estimate: max(est/actual, actual/est) with
  // both sides clamped to >= 1 so empty results stay finite. Returns 0
  // when no estimate was joined in.
  double QError() const;

  // The hash{}, bloom{}, sort{} and spill{} blocks of the counters that
  // ran, each with a leading space; empty when none did. Both renderings
  // below end each node's line with it.
  std::string CountersString() const;

  // Indented one-node-per-line rendering of the stats tree (counters
  // only; EXPLAIN ANALYZE produces the plan-annotated form).
  std::string ToString(int indent = 0) const;
};

// Depth-first walk collecting the q-error of every estimated operator.
void CollectQErrors(const OperatorStats& stats, std::vector<double>* out);

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_STATS_H_
