// Out-of-core (grace-style) degradation for the hash kernels.
//
// When a hash join's build table or an aggregation's group map trips the
// ResourceBudget memory cap and the ExecContext carries an enabled
// SpillConfig, the kernel abandons its in-memory state and re-runs through
// the partitioned path here: rows are radix-partitioned by key hash into
// SpillFile runs (base/spill_file.h), each partition is processed in
// memory, and a partition that still does not fit is repartitioned with a
// depth-salted hash. At SpillConfig::max_recursion the join switches to a
// block-chunked build (build-side chunks sized to the budget, probe side
// rescanned per chunk), which terminates under identical-key skew that
// rehashing cannot split.
//
// Correctness subtleties this module owns:
//   * every spilled record carries the row's ORIGINAL index in its input
//     relation, so the matched bitmaps of JoinCoreResult are indexed
//     globally no matter how rows moved between partitions -- outer-join
//     padding and GS preserved-set resurrection above the join see exactly
//     the flags the in-memory kernel would have produced;
//   * rows whose equi-key encodes NULL never match under 3VL; they are
//     counted and dropped before partitioning, like the in-memory path;
//   * aggregation partitions by group key, so each group lands wholly in
//     one partition and per-partition group maps are disjoint; synthetic
//     group ordinals are threaded across partitions to stay unique.
//
// Tuple records are length-prefixed: u32 payload length, then i64 original
// row index, u16 value count, u16 vid count, tagged values (ValueType byte;
// i64 / double raw; strings u32-length-prefixed) and i64 vids.
#ifndef GSOPT_EXEC_SPILL_H_
#define GSOPT_EXEC_SPILL_H_

#include <cstdint>
#include <string>

#include "base/spill_file.h"
#include "base/status.h"
#include "exec/join_internal.h"
#include "relational/relation.h"

namespace gsopt::exec::internal {

// Rough per-tuple resident size used for memory-cap accounting: container
// headers plus string payloads. An estimate, not an audit -- consistency
// between charge and release is what matters, and OpMemory guarantees that.
uint64_t ApproxTupleBytes(const Tuple& t);

// Hash for partition routing at a given recursion depth. Depth salts the
// hash so a partition that overflows re-splits on fresh bits instead of
// collapsing into one child.
uint64_t SpillPartitionHash(const std::string& key, int depth);

// Serializes (tuple, original row index) onto `buf` in record format.
// Returns kResourceExhausted -- with `buf` unchanged -- when the tuple
// exceeds the framing limits (more than 65535 values or vids, a string or
// total payload past 4GB); the old unchecked casts silently truncated the
// counts and corrupted every record after.
Status AppendTupleRecord(const Tuple& t, int64_t orig, std::string* buf);

Status WriteTupleRecord(SpillFile* f, const Tuple& t, int64_t orig,
                        std::string* scratch);

// Reads one record; the tuple's value/vid counts come from the record.
Status ReadTupleRecord(SpillFile* f, Tuple* t, int64_t* orig);

// Out-of-core replacement for the in-memory hash-join core. Requires
// plan.usable() and ctx.SpillEnabled(); returns the same result shape
// (output bag plus globally-indexed matched bitmaps). Builds over `b`,
// probes with `a`, and joins each partition with RunHashJoin itself.
StatusOr<JoinCoreResult> SpillJoinCore(const Relation& a, const Relation& b,
                                       const HashPlan& plan,
                                       const ExecContext& ctx);

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_SPILL_H_
