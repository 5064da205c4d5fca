// Out-of-core (grace-style) degradation for the hash kernels and the
// external sort.
//
// When a hash join's build table or an aggregation's group map trips the
// ResourceBudget memory cap and the ExecContext carries a SpillConfig, the
// kernel abandons its in-memory state and re-runs through the partitioned
// path: one partitioning pass (PartitionRows) routes the rows by key hash
// into kSpillFanOut SpillRuns, each partition is processed in memory, and a
// partition that still does not fit is repartitioned with a depth-salted
// hash. At depth kSpillMaxDepth the join switches to a block-chunked build
// (build-side chunks sized to the budget, probe side rescanned per chunk),
// which terminates under identical-key skew that rehashing cannot split.
// The external sort (exec/sort.cc) keeps its sorted runs as SpillRuns too,
// so every temp file an operator writes is created, counted, read back and
// accounted here.
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
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "base/spill_file.h"
#include "base/status.h"
#include "exec/join_internal.h"
#include "relational/relation.h"

namespace gsopt::exec::internal {

// Rough per-tuple resident size used for memory-cap accounting: the row's
// slots in a relation's strided buffers plus string payloads. An estimate,
// not an audit -- consistency between charge and release is what matters,
// and OpMemory guarantees that.
uint64_t ApproxTupleBytes(Tuple t);

// Hash for partition routing at a given recursion depth. Depth salts the
// hash so a partition that overflows re-splits on fresh bits instead of
// collapsing into one child.
uint64_t SpillPartitionHash(const std::string& key, int depth);

// Serializes (tuple, original row index) onto `buf` in record format.
// Returns kResourceExhausted -- with `buf` unchanged -- when the tuple
// exceeds the framing limits (more than 65535 values or vids, a string or
// total payload past 4GB); the old unchecked casts silently truncated the
// counts and corrupted every record after.
Status AppendTupleRecord(Tuple t, int64_t orig, std::string* buf);

Status WriteTupleRecord(SpillFile* f, Tuple t, int64_t orig,
                        std::string* scratch);

// Reads one record into *t, reusing its buffers; the value/vid counts come
// from the record.
Status ReadTupleRecord(SpillFile* f, OwnedTuple* t, int64_t* orig);

// Repartitioning levels a spilled operator may take. Past it the join
// falls back to block chunking, and an aggregation whose partition still
// overflows reports the memory cap.
constexpr int kSpillMaxDepth = 3;

// One spilled run: a SpillFile of tuple records with its record count and
// read cursor. Written front to back, then read back front to back.
class SpillRun {
 public:
  // Creates the run's file in ctx.spill's directory (ctx.spill must be
  // set); the file probes ctx.fault, and Discard() reports to ctx.stats.
  static StatusOr<SpillRun> Create(const ExecContext& ctx);

  Status Write(Tuple t, int64_t orig);
  // Flushes and moves the read cursor to the first record.
  Status Rewind();
  // Reads the next record; *ok = false (and no read) past the last one.
  Status Next(OwnedTuple* t, int64_t* orig, bool* ok);
  // Rewinds and appends every record's tuple to `rows` and, when `orig`
  // is non-null, its original row index to `orig`.
  Status Load(Relation* rows, std::vector<int64_t>* orig);
  // Adds the bytes written and read to the creating context's stats (the
  // first call only) and unlinks the file. A run destroyed undiscarded is
  // unlinked without reporting.
  void Discard();

  int64_t size() const { return count_; }

 private:
  SpillRun(SpillFile file, OperatorStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  SpillFile file_;
  OperatorStats* stats_;
  int64_t count_ = 0;
  int64_t cursor_ = 0;
  std::string scratch_;
};

// Appends one fresh run per partition to each of `sides`, interleaved by
// partition (every side's run for partition 0, then partition 1, ...), so
// a seeded fault schedule meets the file opens in a fixed order.
Status CreatePartitionRuns(const ExecContext& ctx,
                           std::initializer_list<std::vector<SpillRun>*> sides);

// Routing key of row i, appended to an empty `key`; false drops the row.
using SpillKeyFn = std::function<StatusOr<bool>(int64_t i, std::string* key)>;

// One partitioning pass at `depth`: writes every row of `rel` that `key_of`
// keeps to (*runs)[SpillPartitionHash(key, depth) % runs->size()], with
// its original index (orig[i], or i when `orig` is null).
Status PartitionRows(const Relation& rel, const int64_t* orig, int depth,
                     const SpillKeyFn& key_of, std::vector<SpillRun>* runs);

// Out-of-core replacement for the in-memory hash-join core. Requires
// plan.usable() and ctx.spill; returns the same result shape
// (output bag plus globally-indexed matched bitmaps). Builds over `b`,
// probes with `a`, and joins each partition with RunHashJoin itself.
StatusOr<JoinCoreResult> SpillJoinCore(const Relation& a, const Relation& b,
                                       const HashPlan& plan,
                                       const ExecContext& ctx);

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_SPILL_H_
