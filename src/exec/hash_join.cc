// The one hash-join core, plus the nested-loop join it is tested against.
//
// Every equi-join -- plain or with arithmetic key terms, in memory or
// inside one out-of-core partition -- builds and probes in RunHashJoin:
//   * key terms are bound once per input (KeyColumns), and each row's key
//     is encoded straight from the row;
//   * keys are the binary encoding of exec/keys.h, stored in one KeyArena
//     and indexed by one open-addressing JoinHashTable;
//   * pass 1 encodes the build side, pass 2 builds the table and pass 3
//     probes; passes 1 and 3 run in kBatchRows batches, one budget tick
//     and one charge or stats update per batch;
//   * the bloom filter (sideways information passing) rejects probe rows
//     before their key is built, and is disarmed when it stops paying.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exec/bind.h"
#include "exec/bloom.h"
#include "exec/hash_table.h"
#include "exec/join_internal.h"
#include "exec/spill.h"

namespace gsopt::exec::internal {

KeyColumns::KeyColumns(const std::vector<ScalarPtr>& keys, const Relation& r)
    : r_(&r) {
  terms_.reserve(keys.size());
  for (const ScalarPtr& k : keys) terms_.emplace_back(*k, r.schema());
}

JoinCoreResult EmptyJoinResult(const Relation& a, const Relation& b) {
  JoinCoreResult res;
  res.out = Relation(Schema::Concat(a.schema(), b.schema()),
                     VirtualSchema::Concat(a.vschema(), b.vschema()));
  res.a_matched.assign(static_cast<size_t>(a.NumRows()), 0);
  res.b_matched.assign(static_cast<size_t>(b.NumRows()), 0);
  return res;
}

namespace {

constexpr uint64_t kMaxReserve = 1u << 20;

// Best-effort read prefetch; a no-op on compilers without the builtin.
inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace

Status RunHashJoin(const Relation& a, const Relation& b, const HashPlan& plan,
                   const ExecContext& ctx, HashRun run, JoinCoreResult* res,
                   OperatorStats* tally, bool* mem_trip, uint64_t* misses) {
  const bool charge_build = run != HashRun::kChunk;
  OperatorStats& st = *tally;

  // The bloom filter's bytes are charged before any build charge, on their
  // own reservation: a failed charge (memory cap, injected alloc fault)
  // just runs the join filter-free -- the filter is never a correctness
  // dependency.
  BloomFilter bloom;
  OpMemory bloom_mem(ctx);
  const bool bloom_on =
      ctx.Bloom(b.NumRows(), a.NumRows()) &&
      bloom_mem.Charge(BloomFilter::BytesFor(b.NumRows()), "join").ok();

  // Pass 1: encode and hash the build side. Each batch charges its rows'
  // state in one go; a charge that does not fit records a memory trip,
  // which the caller may survive by spilling.
  KeyArena arena;
  std::vector<JoinHashTable::Entry> entries;
  OpMemory mem(ctx);
  const KeyColumns b_keys(plan.b_keys, b);
  // Without a budget the charge only probes the fault injector, so the
  // per-row byte estimate is skipped.
  const bool budgeted = charge_build && ctx.budget != nullptr;
  std::string key;
  Status built = ForBatches(b.NumRows(), [&](int64_t begin,
                                             int64_t end) -> Status {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
    ++st.batches;
    uint64_t bytes = 0;
    for (int64_t i = begin; i < end; ++i) {
      key.clear();
      if (!b_keys.Append(i, &key)) {
        ++st.null_key_skips;
        continue;
      }
      uint64_t h = HashKeyBytes(key);
      uint64_t off = arena.Append(key);
      entries.push_back(JoinHashTable::Entry{
          h, off, i, static_cast<uint32_t>(key.size()), -1});
      ++st.build_rows;
      if (budgeted) bytes += ApproxTupleBytes(b.row(i)) + 64 + key.size();
    }
    if (!charge_build) return Status::OK();
    Status s = mem.Charge(bytes, "join");
    if (!s.ok()) *mem_trip = true;
    return s;
  });
  GSOPT_RETURN_IF_ERROR(built);

  if (bloom_on) {
    bloom.Init(b.NumRows());
    for (const JoinHashTable::Entry& e : entries) bloom.Insert(e.hash);
  }

  // Pass 2: the open-addressing table.
  JoinHashTable table;
  table.Build(std::move(entries), arena);

  // Output reservation (whole joins only; a spilled join's output grows
  // across its partitions): expect each probe row to match the mean bucket
  // (build rows / distinct keys), clamped so a hot key cannot commit
  // unbounded memory before the row cap or deadline fires. With the filter
  // armed most probes are rejected before they can match, so the output is
  // reserved only after the first batch, scaled by the observed pass rate
  // plus a 1/8 pad (an exact-fit reserve that undershoots by one row
  // forces a whole-vector regrowth at the end).
  Relation& out = res->out;
  const uint64_t mean_bucket =
      table.distinct_keys() == 0 || run != HashRun::kWhole
          ? 0
          : std::max<uint64_t>(1,
                               table.num_entries() / table.distinct_keys());
  const uint64_t expected =
      (static_cast<uint64_t>(a.NumRows()) + 1) * mean_bucket;
  auto reserve = [&](uint64_t pass, uint64_t checks) {
    uint64_t want =
        checks == 0 ? expected : expected * std::min(pass, checks) / checks;
    out.Reserve(static_cast<int64_t>(std::min(want, kMaxReserve)));
  };
  bool bloom_live = bloom_on;
  bool reserved = false;
  if (!bloom_on && mean_bucket > 0) reserve(0, 0);
  uint64_t checks = 0, rejects = 0, probe_misses = 0, false_positives = 0;

  // Pass 3: probe.
  const BoundPredicate residual(Predicate(plan.residual), out.schema());
  // With no fault injector and no budget, Tick and ChargeRows are
  // statically no-ops; hoisting that check out of the duplicate-chain walk
  // keeps the per-pair loop free of dead policy probes.
  const bool idle = ctx.fault == nullptr && ctx.budget == nullptr;
  const KeyColumns a_keys(plan.a_keys, a);
  // Emits the matches of probe row i, whose key is in `key` and hashes
  // to h.
  auto probe = [&](int64_t i, uint64_t h) -> Status {
    int32_t e = table.Find(h, key.data(), static_cast<uint32_t>(key.size()),
                           arena);
    if (e < 0) {
      ++probe_misses;
      return Status::OK();
    }
    for (; e >= 0; e = table.entry(e).next) {
      // Tick inside the chain: a skewed key must not run deadline-blind.
      if (!idle) GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
      int64_t j = table.entry(e).row;
      // Duplicate chains jump across the build side; start pulling the
      // next match's row while this one is being copied out.
      int32_t e_next = table.entry(e).next;
      if (e_next >= 0) {
        Prefetch(b.row(table.entry(e_next).row).values.data());
      }
      ++st.residual_evals;
      if (!residual.Test(RowRef(a.row(i), b.row(j)))) continue;
      res->a_matched[static_cast<size_t>(i)] = 1;
      res->b_matched[static_cast<size_t>(j)] = 1;
      out.AddConcat(a.row(i), b.row(j));
      if (!idle) GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "join"));
    }
    return Status::OK();
  };
  std::vector<std::pair<int64_t, uint64_t>> pass;
  GSOPT_RETURN_IF_ERROR(ForBatches(a.NumRows(), [&](int64_t begin,
                                                    int64_t end) -> Status {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
    ++st.batches;
    if (!bloom_live) {
      for (int64_t i = begin; i < end; ++i) {
        key.clear();
        if (!a_keys.Append(i, &key)) {
          ++st.null_key_skips;
          continue;
        }
        ++st.probe_rows;
        GSOPT_RETURN_IF_ERROR(probe(i, HashKeyBytes(key)));
      }
      return Status::OK();
    }
    // Filter pass: a streaming hash and one filter probe per row refine
    // the batch before any key bytes are built -- rejected rows never
    // materialize their key.
    pass.clear();
    uint64_t batch_checks = 0;
    for (int64_t i = begin; i < end; ++i) {
      uint64_t h = 0;
      if (!a_keys.Hash(i, &h)) {
        ++st.null_key_skips;
        continue;
      }
      ++batch_checks;
      if (!bloom.MayContain(h)) continue;
      pass.emplace_back(i, h);
    }
    checks += batch_checks;
    rejects += batch_checks - pass.size();
    st.probe_rows += batch_checks;
    // Calibration (kAuto): past kBloomCalibrateChecks probes, disarm the
    // filter for the remaining rows unless it rejects enough to pay for
    // itself; kForce stays armed for test coverage.
    const bool disarm = ctx.bloom == BloomMode::kAuto &&
                        checks >= kBloomCalibrateChecks &&
                        !BloomStillWinning(checks, rejects);
    if (!reserved && checks > 0 && mean_bucket > 0) {
      reserved = true;
      reserve(disarm ? checks : checks - rejects + checks / 8, checks);
    } else if (disarm && mean_bucket > 0) {
      reserve(0, 0);  // regrow once to the unfiltered estimate
    }
    if (disarm) bloom_live = false;
    const uint64_t misses_before = probe_misses;
    for (const auto& [i, h] : pass) {
      key.clear();
      a_keys.Append(i, &key);  // non-NULL: hashed above
      GSOPT_RETURN_IF_ERROR(probe(i, h));
    }
    false_positives += probe_misses - misses_before;
    return Status::OK();
  }));

  st.hash_path = true;
  st.max_bucket = std::max<uint64_t>(st.max_bucket, table.max_chain());
  if (bloom_on) {
    st.bloom = true;
    st.bloom_checks += checks;
    st.bloom_rejects += rejects;
    st.bloom_false_positives += false_positives;
  }
  if (misses != nullptr) *misses += probe_misses;
  return Status::OK();
}

StatusOr<JoinCoreResult> HashJoinCore(const Relation& a, const Relation& b,
                                      const HashPlan& plan,
                                      const ExecContext& ctx) {
  JoinCoreResult res = EmptyJoinResult(a, b);
  OperatorStats tally;
  bool trip = false;
  Status s =
      RunHashJoin(a, b, plan, ctx, HashRun::kWhole, &res, &tally, &trip,
                  nullptr);
  if (!s.ok()) {
    // The build state does not fit (or an alloc fault fired): with
    // spilling enabled, degrade to the out-of-core grace join. The
    // in-memory state and its charges are already unwound.
    if (!trip || ctx.spill == nullptr) return s;
    return SpillJoinCore(a, b, plan, ctx);
  }
  if (ctx.stats != nullptr) ctx.stats->MergeCountersFrom(tally);
  return res;
}

StatusOr<JoinCoreResult> NestedLoopJoinCore(const Relation& a,
                                            const Relation& b,
                                            const Predicate& p,
                                            const ExecContext& ctx) {
  JoinCoreResult res = EmptyJoinResult(a, b);
  const Schema& out_schema = res.out.schema();
  uint64_t evals = 0;
  OwnedTuple t;  // the candidate pair, concatenated
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    for (int64_t j = 0; j < b.NumRows(); ++j) {
      GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
      t.AssignConcat(a.row(i), b.row(j));
      ++evals;
      if (p.Satisfied(t, out_schema)) {
        res.a_matched[static_cast<size_t>(i)] = 1;
        res.b_matched[static_cast<size_t>(j)] = 1;
        res.out.Add(t);
        GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "join"));
      }
    }
  }
  if (ctx.stats != nullptr) ctx.stats->residual_evals += evals;
  return res;
}

}  // namespace gsopt::exec::internal
