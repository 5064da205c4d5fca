// The one hash-join core, plus the nested-loop join it is tested against.
//
// Every equi-join -- serial or morsel-parallel, plain or with arithmetic
// key terms, in memory or inside one out-of-core partition -- builds and
// probes in RunHashJoin:
//   * key terms are bound once per input (KeyColumns, shared by every
//     lane), and each row's key is encoded straight from the row;
//   * keys are the binary encoding of exec/keys.h, stored in per-lane
//     KeyArenas and indexed by open-addressing JoinHashTables;
//   * pass 1 encodes and radix-partitions the build side, pass 2 builds one
//     table per partition, pass 3 probes; a serial join is the case of one
//     lane and one partition, run inline on the calling thread;
//   * the bloom filter (sideways information passing) and the output
//     reservation follow one policy for every lane count.
// Lanes write private outputs, matched flags and counters, spliced and
// merged after the fan-in; lane 0 writes straight into the result.
#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "exec/bind.h"
#include "exec/bloom.h"
#include "exec/hash_table.h"
#include "exec/join_internal.h"
#include "exec/lane_control.h"
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

int JoinLanesFor(const ExecContext& ctx, const Relation& a,
                 const Relation& b) {
  return LanesFor(ctx, std::max(a.NumRows(), b.NumRows()));
}

// Per-lane outputs and b-side matched flags of one join run. Lane 0 writes
// into the result itself; Finish() splices the other lanes on in lane
// order and ORs their matched flags in. (a-side flags need no lanes: each
// probe row belongs to exactly one lane.)
class JoinLanes {
 public:
  JoinLanes(JoinCoreResult* res, int lanes)
      : res_(res), out_(&res->out, lanes) {
    for (int l = 1; l < lanes; ++l) {
      b_matched_.emplace_back(res->b_matched.size(), 0);
    }
  }
  Relation& out(int lane) { return out_[lane]; }
  std::vector<char>& b_matched(int lane) {
    return lane == 0 ? res_->b_matched
                     : b_matched_[static_cast<size_t>(lane - 1)];
  }
  void Finish() {
    out_.Splice();
    for (const std::vector<char>& bm : b_matched_) {
      for (size_t j = 0; j < bm.size(); ++j) {
        if (bm[j]) res_->b_matched[j] = 1;
      }
    }
  }

 private:
  JoinCoreResult* res_;
  LaneOutputs out_;
  std::vector<std::vector<char>> b_matched_;
};

// Probe-side state of one lane: its bloom-filter counters, whether the
// filter is still armed for it, and whether its output is reserved yet.
// Updated once per range: lanes' states share cache lines.
struct ProbeLane {
  uint64_t checks = 0;
  uint64_t rejects = 0;
  uint64_t false_positives = 0;
  uint64_t misses = 0;
  bool bloom_live = false;
  bool reserved = false;
};

}  // namespace

Status RunHashJoin(const Relation& a, const Relation& b, const HashPlan& plan,
                   const ExecContext& ctx, HashRun run, JoinCoreResult* res,
                   OperatorStats* tally, bool* mem_trip, uint64_t* misses) {
  const bool charge_build = run != HashRun::kChunk;
  const int lanes = JoinLanesFor(ctx, a, b);
  const size_t nlanes = static_cast<size_t>(lanes);
  std::vector<OperatorStats> lane_stats(nlanes);
  LaneControl control(lanes);

  // Radix partitioning: one partition per serial build; in parallel a
  // power of two >= 2*lanes, so pass 2 load-balances under hash skew.
  int log2_parts = 0;
  if (lanes > 1) {
    while ((1 << log2_parts) < std::max(16, 2 * lanes)) ++log2_parts;
  }
  const size_t parts = size_t{1} << log2_parts;
  auto part_of = [log2_parts](uint64_t h) -> size_t {
    return log2_parts == 0 ? 0 : static_cast<size_t>(h >> (64 - log2_parts));
  };

  // The bloom filter's bytes are charged before any build charge, on their
  // own reservation: a failed charge (memory cap, injected alloc fault)
  // just runs the join filter-free -- the filter is never a correctness
  // dependency. In parallel, in-flight morsels already hide lookup
  // latency, so kAuto wants a larger probe side there.
  BloomFilter bloom;
  OpMemory bloom_mem(ctx);
  const bool bloom_on =
      ctx.Bloom(b.NumRows(), a.NumRows()) &&
      (lanes == 1 || ctx.bloom == BloomMode::kForce ||
       a.NumRows() >= kMinBloomProbeRowsParallel) &&
      bloom_mem.Charge(BloomFilter::BytesFor(b.NumRows()), "join").ok();

  // Pass 1: encode, hash and partition the build side. Each batch charges
  // its rows' state in one go; a charge that does not fit records a
  // memory trip, which the caller may survive by spilling.
  std::vector<KeyArena> arenas(nlanes);
  std::vector<std::vector<std::vector<JoinHashTable::Entry>>> lane_parts(
      nlanes, std::vector<std::vector<JoinHashTable::Entry>>(parts));
  std::vector<OpMemory> lane_mem;
  lane_mem.reserve(nlanes);
  for (size_t l = 0; l < nlanes; ++l) lane_mem.emplace_back(ctx);
  const KeyColumns b_keys(plan.b_keys, b);
  std::atomic<bool> trip{false};
  // Without a budget the charge only probes the fault injector, so the
  // per-row byte estimate is skipped.
  const bool budgeted = charge_build && ctx.budget != nullptr;
  ForRanges(ctx, lanes, b.NumRows(), [&](int lane, int64_t begin,
                                         int64_t end) {
    if (control.cancelled()) return;
    const size_t l = static_cast<size_t>(lane);
    Status s = ctx.Tick("join");
    if (!s.ok()) return control.Fail(lane, std::move(s));
    OperatorStats& st = lane_stats[l];
    ++st.batches;
    std::string key;
    uint64_t bytes = 0;
    for (int64_t i = begin; i < end; ++i) {
      key.clear();
      if (!b_keys.Append(i, &key)) {
        ++st.null_key_skips;
        continue;
      }
      uint64_t h = HashKeyBytes(key);
      uint64_t off = arenas[l].Append(key);
      lane_parts[l][part_of(h)].push_back(JoinHashTable::Entry{
          h, off, static_cast<uint32_t>(key.size()),
          static_cast<uint32_t>(lane), i, -1});
      ++st.build_rows;
      if (budgeted) bytes += ApproxTupleBytes(b.row(i)) + 64 + key.size();
    }
    if (charge_build) {
      s = lane_mem[l].Charge(bytes, "join");
      if (!s.ok()) {
        trip.store(true, std::memory_order_relaxed);
        return control.Fail(lane, std::move(s));
      }
    }
  });
  Status built = control.First();
  if (!built.ok()) {
    *mem_trip = trip.load(std::memory_order_relaxed);
    return built;
  }

  if (bloom_on) {
    bloom.Init(b.NumRows());
    for (const auto& lp : lane_parts) {
      for (const auto& part : lp) {
        for (const JoinHashTable::Entry& e : part) bloom.Insert(e.hash);
      }
    }
  }

  // Pass 2: one open-addressing table per partition; partitions are
  // disjoint, so in parallel they build with morsel size 1.
  std::vector<JoinHashTable> tables(parts);
  auto build_part = [&](size_t p) {
    if (nlanes == 1) {
      tables[p].Build(std::move(lane_parts[0][p]), arenas);
      return;
    }
    std::vector<JoinHashTable::Entry> entries;
    for (const auto& lp : lane_parts) {
      entries.insert(entries.end(), lp[p].begin(), lp[p].end());
    }
    tables[p].Build(std::move(entries), arenas);
  };
  if (parts == 1) {
    build_part(0);
  } else {
    ctx.executor->pool().ParallelFor(
        static_cast<int64_t>(parts), 1,
        [&](int /*lane*/, int64_t begin, int64_t end) {
          for (int64_t p = begin; p < end; ++p) {
            build_part(static_cast<size_t>(p));
          }
        });
  }
  uint64_t build_total = 0, distinct_total = 0, max_chain = 0;
  for (const JoinHashTable& t : tables) {
    build_total += t.num_entries();
    distinct_total += t.distinct_keys();
    max_chain = std::max(max_chain, t.max_chain());
  }

  // Output reservation (whole joins only; a spilled join's output grows
  // across its partitions): expect each probe row to match the mean bucket
  // (build rows / distinct keys), split over the lanes and clamped so a
  // hot key cannot commit unbounded memory before the row cap or deadline
  // fires. With the filter armed most probes are rejected before they can
  // match, so a lane reserves only after its first batch, scaled by the
  // observed pass rate plus a 1/8 pad (an exact-fit reserve that
  // undershoots by one row forces a whole-vector regrowth at the end).
  const uint64_t mean_bucket =
      distinct_total == 0 || run != HashRun::kWhole
          ? 0
          : std::max<uint64_t>(1, build_total / distinct_total);
  const uint64_t lane_expected =
      (static_cast<uint64_t>(a.NumRows()) / nlanes + 1) * mean_bucket;
  auto reserve = [&](Relation& out, uint64_t pass, uint64_t checks) {
    uint64_t want = checks == 0 ? lane_expected
                                : lane_expected * std::min(pass, checks) /
                                      checks;
    out.Reserve(static_cast<int64_t>(std::min(want, kMaxReserve)));
  };
  JoinLanes out_lanes(res, lanes);
  std::vector<ProbeLane> probe_lanes(nlanes);
  for (int l = 0; l < lanes; ++l) {
    probe_lanes[static_cast<size_t>(l)].bloom_live = bloom_on;
    if (!bloom_on && mean_bucket > 0) reserve(out_lanes.out(l), 0, 0);
  }

  // Pass 3: probe.
  const BoundPredicate residual(Predicate(plan.residual), res->out.schema());
  // With no fault injector and no budget, Tick and ChargeRows are
  // statically no-ops; hoisting that check out of the duplicate-chain walk
  // keeps the per-pair loop free of dead policy probes.
  const bool idle = ctx.fault == nullptr && ctx.budget == nullptr;
  const KeyColumns a_keys(plan.a_keys, a);
  ForRanges(ctx, lanes, a.NumRows(), [&](int lane, int64_t begin,
                                         int64_t end) {
    if (control.cancelled()) return;
    const size_t l = static_cast<size_t>(lane);
    Status s = ctx.Tick("join");
    if (!s.ok()) return control.Fail(lane, std::move(s));
    OperatorStats& st = lane_stats[l];
    ProbeLane& pl = probe_lanes[l];
    Relation& out = out_lanes.out(lane);
    std::vector<char>& bm = out_lanes.b_matched(lane);
    ++st.batches;

    // Emits the matches of probe row gi along the chain starting at e.
    auto walk_chain = [&](const JoinHashTable& table, int64_t gi,
                          int32_t e) -> Status {
      for (; e >= 0; e = table.entry(e).next) {
        // Tick inside the chain: a skewed key must not run deadline-blind.
        if (!idle) GSOPT_RETURN_IF_ERROR(ctx.Tick("join"));
        int64_t j = table.entry(e).row;
        // Duplicate chains jump across the build side; start pulling the
        // next match's row while this one is being copied out.
        int32_t e_next = table.entry(e).next;
        if (e_next >= 0) Prefetch(&b.row(table.entry(e_next).row));
        ++st.residual_evals;
        if (!residual.Test(RowRef(a.row(gi), b.row(j)))) continue;
        res->a_matched[static_cast<size_t>(gi)] = 1;
        bm[static_cast<size_t>(j)] = 1;
        out.AddConcat(a.row(gi), b.row(j));
        if (!idle) GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "join"));
      }
      return Status::OK();
    };
    uint64_t misses = 0;
    auto probe = [&](int64_t i, uint64_t h, const std::string& key) {
      const JoinHashTable& table = tables[part_of(h)];
      int32_t e = table.Find(h, key.data(), static_cast<uint32_t>(key.size()),
                             arenas);
      if (e < 0) ++misses;
      return walk_chain(table, i, e);
    };

    std::string key;
    if (!pl.bloom_live) {
      for (int64_t i = begin; i < end; ++i) {
        key.clear();
        if (!a_keys.Append(i, &key)) {
          ++st.null_key_skips;
          continue;
        }
        ++st.probe_rows;
        s = probe(i, HashKeyBytes(key), key);
        if (!s.ok()) return control.Fail(lane, std::move(s));
      }
      pl.misses += misses;
      return;
    }
    // Filter pass: a streaming hash and one filter probe per row refine
    // the range before any key bytes are built -- rejected rows never
    // materialize their key.
    std::vector<std::pair<int64_t, uint64_t>> pass;
    uint64_t checks = 0;
    for (int64_t i = begin; i < end; ++i) {
      uint64_t h = 0;
      if (!a_keys.Hash(i, &h)) {
        ++st.null_key_skips;
        continue;
      }
      ++checks;
      if (!bloom.MayContain(h)) continue;
      pass.emplace_back(i, h);
    }
    pl.checks += checks;
    pl.rejects += checks - pass.size();
    st.probe_rows += checks;
    // Calibration (kAuto): past kBloomCalibrateChecks probes, disarm the
    // filter for this lane's remaining rows unless it rejects enough to
    // pay for itself; kForce stays armed for test coverage.
    const bool disarm = ctx.bloom == BloomMode::kAuto &&
                        pl.checks >= kBloomCalibrateChecks &&
                        !BloomStillWinning(pl.checks, pl.rejects);
    if (!pl.reserved && pl.checks > 0 && mean_bucket > 0) {
      pl.reserved = true;
      reserve(out,
              disarm ? pl.checks
                     : pl.checks - pl.rejects + pl.checks / 8,
              pl.checks);
    } else if (disarm && mean_bucket > 0) {
      reserve(out, 0, 0);  // regrow once to the unfiltered estimate
    }
    if (disarm) pl.bloom_live = false;
    for (const auto& [i, h] : pass) {
      key.clear();
      a_keys.Append(i, &key);  // non-NULL: hashed above
      s = probe(i, h, key);
      if (!s.ok()) return control.Fail(lane, std::move(s));
    }
    pl.misses += misses;
    pl.false_positives += misses;
  });
  GSOPT_RETURN_IF_ERROR(control.First());
  out_lanes.Finish();

  MergeLaneStats(lane_stats, tally);
  tally->hash_path = true;
  tally->max_bucket = std::max(tally->max_bucket, max_chain);
  if (bloom_on) {
    tally->bloom = true;
    for (const ProbeLane& pl : probe_lanes) {
      tally->bloom_checks += pl.checks;
      tally->bloom_rejects += pl.rejects;
      tally->bloom_false_positives += pl.false_positives;
    }
  }
  if (misses != nullptr) {
    for (const ProbeLane& pl : probe_lanes) *misses += pl.misses;
  }
  return Status::OK();
}

StatusOr<JoinCoreResult> HashJoinCore(const Relation& a, const Relation& b,
                                      const HashPlan& plan,
                                      const ExecContext& ctx) {
  GSOPT_RETURN_IF_ERROR(
      CheckDispatch(ctx, JoinLanesFor(ctx, a, b), "parallel-join"));
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
  const int lanes = JoinLanesFor(ctx, a, b);
  GSOPT_RETURN_IF_ERROR(CheckDispatch(ctx, lanes, "parallel-join"));
  JoinCoreResult res = EmptyJoinResult(a, b);
  const Schema& out_schema = res.out.schema();
  JoinLanes out_lanes(&res, lanes);
  std::vector<OperatorStats> lane_stats(static_cast<size_t>(lanes));
  LaneControl control(lanes);
  ForRanges(ctx, lanes, a.NumRows(), [&](int lane, int64_t begin,
                                         int64_t end) {
    if (control.cancelled()) return;
    Relation& out = out_lanes.out(lane);
    std::vector<char>& bm = out_lanes.b_matched(lane);
    OperatorStats& st = lane_stats[static_cast<size_t>(lane)];
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t j = 0; j < b.NumRows(); ++j) {
        Status s = ctx.Tick("join");
        if (!s.ok()) return control.Fail(lane, std::move(s));
        Tuple t = Tuple::Concat(a.row(i), b.row(j));
        ++st.residual_evals;
        if (p.Satisfied(t, out_schema)) {
          res.a_matched[static_cast<size_t>(i)] = 1;
          bm[static_cast<size_t>(j)] = 1;
          out.Add(std::move(t));
          s = ctx.ChargeRows(1, "join");
          if (!s.ok()) return control.Fail(lane, std::move(s));
        }
      }
    }
  });
  GSOPT_RETURN_IF_ERROR(control.First());
  out_lanes.Finish();
  MergeLaneStats(lane_stats, ctx.stats);
  return res;
}

}  // namespace gsopt::exec::internal
