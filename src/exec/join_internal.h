// Exec-internal shared pieces of the kernels: the batch loop of the
// optimized kernels, join keys encoded straight from the rows, the
// JoinCore result shape, the two join cores (hash for every equi-join,
// nested loops for the rest and for the reference evaluator), and
// preserved-group indexing.
// The key/residual split they run on (HashPlan, SplitJoinPredicate) is
// public, in exec/eval.h. Not part of the public exec/ API.
#ifndef GSOPT_EXEC_JOIN_INTERNAL_H_
#define GSOPT_EXEC_JOIN_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "exec/bind.h"
#include "exec/eval.h"
#include "exec/hash_table.h"
#include "exec/keys.h"
#include "relational/relation.h"

namespace gsopt::exec::internal {

// Rows per batch of the optimized kernels: large enough to amortize the
// per-batch work (one budget tick, one stats update), small enough that a
// deadline is noticed promptly.
inline constexpr int64_t kBatchRows = 2048;

// Runs body(begin, end) -> Status over kBatchRows batches covering [0, n)
// and returns the first failing batch's Status.
template <typename Body>
Status ForBatches(int64_t n, Body&& body) {
  for (int64_t begin = 0; begin < n; begin += kBatchRows) {
    GSOPT_RETURN_IF_ERROR(body(begin, std::min(n, begin + kBatchRows)));
  }
  return Status::OK();
}

// One input's side of a hash plan, bound to that input once (exec/bind.h).
// It encodes a row's join key straight from the row, through the one
// per-value emitter of exec/keys.h: a plain-column term reads the row's
// value in place, any other term (arithmetic) is evaluated into one scratch
// Value. Append() and Hash() emit the same bytes, so a streaming hash
// equals HashKeyBytes of the built key.
class KeyColumns {
 public:
  KeyColumns(const std::vector<ScalarPtr>& keys, const Relation& r);

  // Appends row i's join key to *key. False -- with *key in an
  // unspecified partial state the caller must clear -- when any component
  // is NULL (such a key never matches under 3VL).
  bool Append(int64_t i, std::string* key) const {
    key_internal::StringSink s{key};
    return Emit(i, s);
  }

  // HashKeyBytes of exactly the bytes Append would emit for row i,
  // computed without building the key. False on a NULL component.
  bool Hash(int64_t i, uint64_t* h) const {
    KeyHash sink;
    if (!Emit(i, sink)) return false;
    *h = sink.h;
    return true;
  }

 private:
  template <typename Sink>
  bool Emit(int64_t i, Sink& s) const {
    const Tuple t = r_->row(i);
    Value scratch;
    for (const BoundScalar& term : terms_) {
      const int c = term.column();
      const Value& v = c >= 0 ? t.values[static_cast<size_t>(c)]
                              : term.Ref(RowRef(t), &scratch);
      if (!key_internal::EmitValue(s, v)) return false;
    }
    return true;
  }

  const Relation* r_;
  std::vector<BoundScalar> terms_;
};

// Matched pairs plus per-side matched flags; the shared core of every join
// flavour.
struct JoinCoreResult {
  Relation out;
  std::vector<char> a_matched;
  std::vector<char> b_matched;
};

// An empty result shaped for a join of a (left) with b (right).
JoinCoreResult EmptyJoinResult(const Relation& a, const Relation& b);

// The hash-join core (exec/hash_join.cc). Builds over b and probes with a
// on binary keys in one JoinHashTable, with a bloom filter when
// ctx.Bloom() says so, and degrades to SpillJoinCore on a memory-cap trip
// when spilling is enabled.
// Requires plan.usable().
StatusOr<JoinCoreResult> HashJoinCore(const Relation& a, const Relation& b,
                                      const HashPlan& plan,
                                      const ExecContext& ctx);

// Nested loops over Predicate::Satisfied: the path for predicates with no
// separable equi-conjunct, and -- serial, under BatchMode::kOff -- the
// reference evaluator every other join path is tested against.
StatusOr<JoinCoreResult> NestedLoopJoinCore(const Relation& a,
                                            const Relation& b,
                                            const Predicate& p,
                                            const ExecContext& ctx);

// What a RunHashJoin call computes: a whole in-memory join; one partition
// of a spilled join, which appends onto the operator's accumulating output
// and so reserves none; or one build chunk of a partition, whose memory
// the caller has already charged.
enum class HashRun { kWhole, kPartition, kChunk };

// The in-memory build/probe behind HashJoinCore, for the out-of-core path
// to run inside each partition too. Emits into *res (shaped like
// EmptyJoinResult) and adds counters to *tally, which the caller discards
// on failure. A failed build charge sets *mem_trip, before anything was
// emitted. *misses (optional) counts probe
// keys the table did not hold.
Status RunHashJoin(const Relation& a, const Relation& b, const HashPlan& plan,
                   const ExecContext& ctx, HashRun run, JoinCoreResult* res,
                   OperatorStats* tally, bool* mem_trip, uint64_t* misses);

// Group column/vid indices for one preserved group within a schema.
struct GroupIndex {
  std::vector<int> value_idx;
  std::vector<int> vid_idx;
};

inline GroupIndex IndexGroup(const PreservedGroup& group, const Schema& schema,
                             const VirtualSchema& vschema) {
  GroupIndex gi;
  for (int i = 0; i < schema.size(); ++i) {
    if (group.count(schema.attr(i).rel)) gi.value_idx.push_back(i);
  }
  for (int i = 0; i < vschema.size(); ++i) {
    if (group.count(vschema.rel(i))) gi.vid_idx.push_back(i);
  }
  return gi;
}

// True if the tuple is entirely NULL on the group's columns and row ids.
// Such a projection means "no preserved tuple here" (the group's part was
// itself padding from an outer join below) and must not be resurrected.
inline bool GroupPartAllNull(Tuple t, const GroupIndex& gi) {
  for (int i : gi.value_idx) {
    if (!t.values[i].is_null()) return false;
  }
  for (int i : gi.vid_idx) {
    if (t.vids[i] != kNullRowId) return false;
  }
  return true;
}

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_JOIN_INTERNAL_H_
