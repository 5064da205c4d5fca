#include "exec/spill.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "exec/bloom.h"
#include "exec/hash_table.h"

namespace gsopt::exec::internal {

namespace {

// Per-row overhead estimate for a build chunk's hash-table entry and key,
// on top of the row itself (the block-chunked fallback charges a chunk
// before it is encoded).
constexpr uint64_t kTableEntryBytes = 64;

// Runs per partitioning pass.
constexpr int kSpillFanOut = 8;

void PutRaw(std::string* buf, const void* p, size_t n) {
  buf->append(static_cast<const char*>(p), n);
}

struct RecordCursor {
  const char* p;
  const char* end;

  bool Take(void* out, size_t n) {
    if (static_cast<size_t>(end - p) < n) return false;
    std::memcpy(out, p, n);
    p += n;
    return true;
  }
};

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t ApproxTupleBytes(Tuple t) {
  // A row occupies its values' and row ids' slots in the strided buffers,
  // plus string contents. A string block shared by k values (a join row
  // copies its inputs' strings by reference) is charged k times, once
  // per value that holds it: an upper bound that does not depend on
  // which holder releases the block last.
  uint64_t n = t.values.size() * sizeof(Value) + t.vids.size() * sizeof(RowId);
  for (const Value& v : t.values) {
    if (v.type() == ValueType::kString) n += v.AsString().size();
  }
  return n;
}

uint64_t SpillPartitionHash(const std::string& key, int depth) {
  // Remixing HashKeyBytes with a depth salt gives every recursion level
  // (and the level-0 spill itself) an independent bit pattern.
  return Mix64(HashKeyBytes(key) ^
               (static_cast<uint64_t>(depth) * 0xd6e8feb86659fd93ull));
}

Status AppendTupleRecord(Tuple t, int64_t orig, std::string* buf) {
  // Record framing narrows to u16 counts and a u32 payload length. The
  // casts used to be unchecked: a 65536-column tuple wrapped its count to
  // 0 and a >4GB string wrapped its length, silently corrupting the run
  // and every record after it. Check the limits up front and mid-stream,
  // rolling the buffer back so a failed append leaves no partial record.
  constexpr size_t kMaxCount = UINT16_MAX;
  constexpr uint64_t kMaxPayload = UINT32_MAX;
  size_t len_pos = buf->size();
  if (t.values.size() > kMaxCount || t.vids.size() > kMaxCount) {
    return Status::ResourceExhausted(
        "spill: tuple arity exceeds record format (values=" +
        std::to_string(t.values.size()) +
        ", vids=" + std::to_string(t.vids.size()) + ", max=" +
        std::to_string(kMaxCount) + ")");
  }
  uint32_t payload_len = 0;
  PutRaw(buf, &payload_len, sizeof payload_len);  // patched below
  PutRaw(buf, &orig, sizeof orig);
  uint16_t nvalues = static_cast<uint16_t>(t.values.size());
  uint16_t nvids = static_cast<uint16_t>(t.vids.size());
  PutRaw(buf, &nvalues, sizeof nvalues);
  PutRaw(buf, &nvids, sizeof nvids);
  for (const Value& v : t.values) {
    uint8_t tag = static_cast<uint8_t>(v.type());
    PutRaw(buf, &tag, 1);
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt: {
        int64_t x = v.AsInt();
        PutRaw(buf, &x, sizeof x);
        break;
      }
      case ValueType::kDouble: {
        double x = v.AsDouble();
        PutRaw(buf, &x, sizeof x);
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        if (s.size() > kMaxPayload) {
          buf->resize(len_pos);
          return Status::ResourceExhausted(
              "spill: string value of " + std::to_string(s.size()) +
              " bytes exceeds the u32 record length");
        }
        uint32_t n = static_cast<uint32_t>(s.size());
        PutRaw(buf, &n, sizeof n);
        buf->append(s);
        break;
      }
    }
  }
  for (RowId vid : t.vids) PutRaw(buf, &vid, sizeof vid);
  uint64_t payload = buf->size() - len_pos - sizeof payload_len;
  if (payload > kMaxPayload) {
    buf->resize(len_pos);
    return Status::ResourceExhausted(
        "spill: record payload of " + std::to_string(payload) +
        " bytes exceeds the u32 record length");
  }
  payload_len = static_cast<uint32_t>(payload);
  std::memcpy(buf->data() + len_pos, &payload_len, sizeof payload_len);
  return Status::OK();
}

Status WriteTupleRecord(SpillFile* f, Tuple t, int64_t orig,
                        std::string* scratch) {
  scratch->clear();
  GSOPT_RETURN_IF_ERROR(AppendTupleRecord(t, orig, scratch));
  return f->Append(scratch->data(), scratch->size());
}

Status ReadTupleRecord(SpillFile* f, OwnedTuple* t, int64_t* orig) {
  uint32_t payload_len = 0;
  GSOPT_RETURN_IF_ERROR(f->ReadExact(&payload_len, sizeof payload_len));
  std::string payload(payload_len, '\0');
  GSOPT_RETURN_IF_ERROR(f->ReadExact(payload.data(), payload_len));
  RecordCursor c{payload.data(), payload.data() + payload.size()};
  uint16_t nvalues = 0, nvids = 0;
  if (!c.Take(orig, sizeof *orig) || !c.Take(&nvalues, sizeof nvalues) ||
      !c.Take(&nvids, sizeof nvids)) {
    return Status::Internal("spill: malformed record header");
  }
  t->values.clear();
  t->values.reserve(nvalues);
  t->vids.clear();
  t->vids.reserve(nvids);
  for (uint16_t k = 0; k < nvalues; ++k) {
    uint8_t tag = 0;
    if (!c.Take(&tag, 1)) return Status::Internal("spill: malformed value");
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kNull:
        t->values.push_back(Value::Null());
        break;
      case ValueType::kInt: {
        int64_t x = 0;
        if (!c.Take(&x, sizeof x)) {
          return Status::Internal("spill: malformed int value");
        }
        t->values.push_back(Value::Int(x));
        break;
      }
      case ValueType::kDouble: {
        double x = 0;
        if (!c.Take(&x, sizeof x)) {
          return Status::Internal("spill: malformed double value");
        }
        t->values.push_back(Value::Double(x));
        break;
      }
      case ValueType::kString: {
        uint32_t n = 0;
        if (!c.Take(&n, sizeof n) ||
            static_cast<size_t>(c.end - c.p) < n) {
          return Status::Internal("spill: malformed string value");
        }
        t->values.push_back(Value::String(std::string(c.p, n)));
        c.p += n;
        break;
      }
      default:
        return Status::Internal("spill: unknown value tag");
    }
  }
  for (uint16_t k = 0; k < nvids; ++k) {
    RowId vid = kNullRowId;
    if (!c.Take(&vid, sizeof vid)) {
      return Status::Internal("spill: malformed vid");
    }
    t->vids.push_back(vid);
  }
  return Status::OK();
}

StatusOr<SpillRun> SpillRun::Create(const ExecContext& ctx) {
  GSOPT_CHECK(ctx.spill != nullptr);
  GSOPT_ASSIGN_OR_RETURN(SpillFile f, SpillFile::Create(ctx.spill->dir,
                                                        ctx.fault));
  return SpillRun(std::move(f), ctx.stats);
}

Status SpillRun::Write(Tuple t, int64_t orig) {
  GSOPT_RETURN_IF_ERROR(WriteTupleRecord(&file_, t, orig, &scratch_));
  ++count_;
  return Status::OK();
}

Status SpillRun::Rewind() {
  cursor_ = 0;
  return file_.Rewind();
}

Status SpillRun::Next(OwnedTuple* t, int64_t* orig, bool* ok) {
  *ok = cursor_ < count_;
  if (!*ok) return Status::OK();
  ++cursor_;
  return ReadTupleRecord(&file_, t, orig);
}

Status SpillRun::Load(Relation* rows, std::vector<int64_t>* orig) {
  GSOPT_RETURN_IF_ERROR(Rewind());
  OwnedTuple t;
  for (; cursor_ < count_; ++cursor_) {
    int64_t o = 0;
    GSOPT_RETURN_IF_ERROR(ReadTupleRecord(&file_, &t, &o));
    if (t.values.size() != static_cast<size_t>(rows->schema().size()) ||
        t.vids.size() != static_cast<size_t>(rows->vschema().size())) {
      return Status::Internal("spill: record shape does not match its run");
    }
    rows->Add(std::move(t));
    if (orig != nullptr) orig->push_back(o);
  }
  return Status::OK();
}

void SpillRun::Discard() {
  if (stats_ != nullptr) {
    stats_->spill_bytes_written += file_.bytes_written();
    stats_->spill_bytes_read += file_.bytes_read();
    stats_ = nullptr;
  }
  file_.Discard();
}

Status CreatePartitionRuns(
    const ExecContext& ctx,
    std::initializer_list<std::vector<SpillRun>*> sides) {
  for (int p = 0; p < kSpillFanOut; ++p) {
    for (std::vector<SpillRun>* side : sides) {
      GSOPT_ASSIGN_OR_RETURN(SpillRun run, SpillRun::Create(ctx));
      side->push_back(std::move(run));
    }
  }
  return Status::OK();
}

Status PartitionRows(const Relation& rel, const int64_t* orig, int depth,
                     const SpillKeyFn& key_of, std::vector<SpillRun>* runs) {
  std::string key;
  for (int64_t i = 0; i < rel.NumRows(); ++i) {
    key.clear();
    GSOPT_ASSIGN_OR_RETURN(bool keep, key_of(i, &key));
    if (!keep) continue;
    size_t p = SpillPartitionHash(key, depth) % runs->size();
    GSOPT_RETURN_IF_ERROR(
        (*runs)[p].Write(rel.row(i), orig != nullptr ? orig[i] : i));
  }
  return Status::OK();
}

namespace {

// One materialized partition side: rows plus each row's original index in
// the operator's input relation (what the matched bitmaps are keyed by).
struct SpillSide {
  Relation rows;
  std::vector<int64_t> orig;

  SpillSide(const Schema& s, const VirtualSchema& vs) : rows(s, vs) {}
};

struct JoinSpillState {
  const ExecContext& ctx;
  const HashPlan& plan;
  JoinCoreResult* res;
  // Bloom-filter bookkeeping, kept here (not on ctx.stats, which may be
  // null) and flushed once by SpillJoinCore. bloom_active records that at
  // least one partitioning pass ran with a filter, so a partition's
  // find-misses are attributable to filter false positives.
  bool bloom_active = false;
  uint64_t bloom_checks = 0;
  uint64_t bloom_rejects = 0;
  uint64_t bloom_false_positives = 0;
};

// Joins one partition (or one build chunk of it) in memory with the
// hash-join core, then maps its matched flags back to the operator's
// input rows. Each partition run is filter-free: the
// partitioning pass already applied the filter.
Status JoinPartition(JoinSpillState& s, const SpillSide& build,
                     const SpillSide& probe, HashRun run, bool* mem_trip) {
  ExecContext part_ctx = s.ctx;
  part_ctx.stats = nullptr;
  part_ctx.bloom = BloomMode::kOff;
  // Matches append straight onto the operator's output (same shape:
  // probe columns, then build columns); only the flags are per partition.
  JoinCoreResult part{std::move(s.res->out),
                      std::vector<char>(probe.orig.size(), 0),
                      std::vector<char>(build.orig.size(), 0)};
  OperatorStats tally;
  uint64_t misses = 0;
  Status st = RunHashJoin(probe.rows, build.rows, s.plan, part_ctx, run,
                          &part, &tally, mem_trip, &misses);
  s.res->out = std::move(part.out);
  GSOPT_RETURN_IF_ERROR(st);
  // A chunk's table covers only part of the build side, so a row can miss
  // one chunk and match another: only full tables count false positives.
  if (s.bloom_active && run == HashRun::kPartition) {
    s.bloom_false_positives += misses;
  }
  if (s.ctx.stats != nullptr) s.ctx.stats->MergeCountersFrom(tally);
  for (size_t i = 0; i < part.a_matched.size(); ++i) {
    if (part.a_matched[i]) {
      s.res->a_matched[static_cast<size_t>(probe.orig[i])] = 1;
    }
  }
  for (size_t j = 0; j < part.b_matched.size(); ++j) {
    if (part.b_matched[j]) {
      s.res->b_matched[static_cast<size_t>(build.orig[j])] = 1;
    }
  }
  return Status::OK();
}

// Terminal fallback for partitions that still overflow at kSpillMaxDepth
// (identical-key skew): join budget-sized chunks of the build side, each
// against the whole probe side. Always terminates -- a chunk holds at
// least one row even if that row alone overflows the cap (the engine's
// minimum working memory is one build row).
Status BlockChunkedJoin(JoinSpillState& s, const SpillSide& build,
                        const SpillSide& probe) {
  const int64_t n = build.rows.NumRows();
  int64_t start = 0;
  while (start < n) {
    OpMemory mem(s.ctx);
    int64_t j = start;
    for (; j < n; ++j) {
      GSOPT_RETURN_IF_ERROR(s.ctx.Tick("join-spill"));
      Status cs = mem.Charge(ApproxTupleBytes(build.rows.row(j)) +
                                 kTableEntryBytes,
                             "join-spill");
      if (!cs.ok() && j > start) break;
    }
    SpillSide chunk(build.rows.schema(), build.rows.vschema());
    for (int64_t k = start; k < j; ++k) {
      chunk.rows.Add(build.rows.row(k));
      chunk.orig.push_back(build.orig[static_cast<size_t>(k)]);
    }
    bool trip = false;
    GSOPT_RETURN_IF_ERROR(
        JoinPartition(s, chunk, probe, HashRun::kChunk, &trip));
    if (s.ctx.stats != nullptr) ++s.ctx.stats->spill_chunks;
    start = j;
  }
  return Status::OK();
}

Status PartitionAndProcess(JoinSpillState& s, const Relation& build_rel,
                           const int64_t* build_orig,
                           const Relation& probe_rel,
                           const int64_t* probe_orig, int depth);

// Tries the partition in memory; overflow recurses (fresh hash bits) or
// falls back to block chunking at max depth.
Status ProcessPartition(JoinSpillState& s, const SpillSide& build,
                        const SpillSide& probe, int depth) {
  bool trip = false;
  Status st = JoinPartition(s, build, probe, HashRun::kPartition, &trip);
  if (st.ok() || !trip) return st;
  if (depth >= kSpillMaxDepth) return BlockChunkedJoin(s, build, probe);
  if (s.ctx.stats != nullptr) ++s.ctx.stats->spill_recursions;
  return PartitionAndProcess(s, build.rows, build.orig.data(), probe.rows,
                             probe.orig.data(), depth);
}

Status PartitionAndProcess(JoinSpillState& s, const Relation& build_rel,
                           const int64_t* build_orig,
                           const Relation& probe_rel,
                           const int64_t* probe_orig, int depth) {
  OperatorStats* st = s.ctx.stats;
  std::vector<SpillRun> bruns, pruns;
  GSOPT_RETURN_IF_ERROR(CreatePartitionRuns(s.ctx, {&bruns, &pruns}));

  // Build-side bloom filter, pushed into probe-side partitioning: a probe
  // row the filter rejects is a certain non-match and is never written to
  // disk at all (its matched flag stays 0, which is exactly what the
  // outer-join padding and GS resurrection passes need). Charged on its
  // own reservation -- under the memory starvation that got us here the
  // charge may fail, in which case this depth partitions filter-free.
  BloomFilter bloom;
  OpMemory bloom_mem(s.ctx);
  if (s.ctx.Bloom(build_rel.NumRows(), probe_rel.NumRows()) &&
      bloom_mem.Charge(BloomFilter::BytesFor(build_rel.NumRows()), "join-spill")
          .ok()) {
    bloom.Init(build_rel.NumRows());
    s.bloom_active = true;
  }

  // Partitions one side by the same key bytes the in-memory build uses,
  // encoded straight from each row, with one budget tick per kBatchRows
  // rows. NULL equi-keys never match under 3VL; they are dropped here like
  // the in-memory build drops them (matched flags stay 0 for outer
  // padding). `build` selects the side's bloom role: insert on the build
  // side, gate writes on the probe side.
  auto route = [&](const Relation& rel, const std::vector<ScalarPtr>& keys,
                   const int64_t* orig, bool build,
                   std::vector<SpillRun>* runs) -> Status {
    const KeyColumns kc(keys, rel);
    auto key_of = [&](int64_t i, std::string* key) -> StatusOr<bool> {
      if (i % kBatchRows == 0) {
        GSOPT_RETURN_IF_ERROR(s.ctx.Tick("join-spill"));
      }
      if (!kc.Append(i, key)) {
        if (st != nullptr && depth == 0) ++st->null_key_skips;
        return false;
      }
      if (!bloom.enabled()) return true;
      if (build) {
        bloom.Insert(HashKeyBytes(*key));
        return true;
      }
      ++s.bloom_checks;
      if (bloom.MayContain(HashKeyBytes(*key))) return true;
      ++s.bloom_rejects;
      return false;
    };
    return PartitionRows(rel, orig, depth, key_of, runs);
  };
  GSOPT_RETURN_IF_ERROR(route(build_rel, s.plan.b_keys, build_orig, true,
                              &bruns));
  GSOPT_RETURN_IF_ERROR(route(probe_rel, s.plan.a_keys, probe_orig, false,
                              &pruns));
  // The filter's job ends with the partitioning pass; release its bytes
  // before the partitions are materialized and processed below.
  bloom = BloomFilter();
  bloom_mem.Release();

  for (size_t p = 0; p < bruns.size(); ++p) {
    // An empty side means no matches can come from this partition; the
    // files are unlinked by RAII either way.
    if (bruns[p].size() == 0 || pruns[p].size() == 0) continue;
    if (st != nullptr) ++st->spill_partitions;
    SpillSide build(build_rel.schema(), build_rel.vschema());
    GSOPT_RETURN_IF_ERROR(bruns[p].Load(&build.rows, &build.orig));
    SpillSide probe(probe_rel.schema(), probe_rel.vschema());
    GSOPT_RETURN_IF_ERROR(pruns[p].Load(&probe.rows, &probe.orig));
    // Release the partition's disk space before recursing: peak disk usage
    // stays one level's runs plus the partition being processed.
    bruns[p].Discard();
    pruns[p].Discard();

    GSOPT_RETURN_IF_ERROR(ProcessPartition(s, build, probe, depth + 1));
  }
  return Status::OK();
}

}  // namespace

StatusOr<JoinCoreResult> SpillJoinCore(const Relation& a, const Relation& b,
                                       const HashPlan& plan,
                                       const ExecContext& ctx) {
  GSOPT_CHECK(plan.usable());
  GSOPT_CHECK(ctx.spill != nullptr);
  JoinCoreResult res = EmptyJoinResult(a, b);
  OperatorStats* st = ctx.stats;
  if (st != nullptr) {
    st->hash_path = true;
    st->spilled = true;
  }
  JoinSpillState state{ctx, plan, &res};
  GSOPT_RETURN_IF_ERROR(
      PartitionAndProcess(state, b, nullptr, a, nullptr, 0));
  if (st != nullptr && state.bloom_active) {
    st->bloom = true;
    st->bloom_checks += state.bloom_checks;
    st->bloom_rejects += state.bloom_rejects;
    st->bloom_false_positives += state.bloom_false_positives;
  }
  return res;
}

}  // namespace gsopt::exec::internal
