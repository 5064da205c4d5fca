#include "exec/sort.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "exec/spill.h"

namespace gsopt::exec {

namespace {

using internal::ApproxTupleBytes;
using internal::SpillRun;

// Maximum spilled runs merged at once. Past this the external sort takes
// an extra pass (merge kMergeFanIn runs into one, repeat), so the final
// streaming merge holds a bounded number of head tuples.
constexpr size_t kMergeFanIn = 8;

}  // namespace

std::string SortSpecToString(const SortSpec& spec) {
  std::string s;
  for (size_t i = 0; i < spec.size(); ++i) {
    if (i) s += ", ";
    s += spec[i].ToString();
  }
  return s;
}

int CompareValuesTotal(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;  // NULL == NULL, lowest
  if (ra == 1) return *Value::Compare(a, b);  // exact across int/double
  int c = a.AsString().compare(b.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

namespace {

// One row staged for sorting: its key values and its original index in
// the input relation (the stability tie-break). A staged row is that input
// row; a row read back from a spilled run carries its own copy in `t`.
struct Keyed {
  std::vector<Value> keys;
  int64_t orig = 0;
  bool spilled = false;
  OwnedTuple t;
};

// The sort spec resolved against the input schema: key column indices and
// per-key direction.
struct KeyCmp {
  std::vector<int> idx;
  std::vector<char> desc;

  void Fill(Tuple t, std::vector<Value>* keys) const {
    keys->clear();
    keys->reserve(idx.size());
    for (int i : idx) keys->push_back(t.values[i]);
  }
  int Compare(const std::vector<Value>& a, const std::vector<Value>& b) const {
    for (size_t k = 0; k < a.size(); ++k) {
      int c = CompareValuesTotal(a[k], b[k]);
      if (desc[k]) c = -c;
      if (c != 0) return c;
    }
    return 0;
  }
  // Strict weak ordering with input-order tie-break: stable no matter how
  // rows moved between spilled runs.
  bool Less(const Keyed& x, const Keyed& y) const {
    int c = Compare(x.keys, y.keys);
    if (c != 0) return c < 0;
    return x.orig < y.orig;
  }
};

uint64_t KeyedBytes(Tuple t, const Keyed& k) {
  return ApproxTupleBytes(t) + 24 * static_cast<uint64_t>(k.keys.size()) + 48;
}

// Produces a relation's rows in sorted order. In-memory when the staged
// rows fit the budget; otherwise sorted SpillRuns merged with bounded
// fan-in. Single-threaded, local to one operator invocation, so every run
// file is destroyed (LiveCount back to zero) before the operator returns.
class SortedStream {
 public:
  SortedStream(const Relation& src, const KeyCmp& cmp, const ExecContext& ctx)
      : src_(src), cmp_(cmp), ctx_(ctx), mem_(ctx) {}

  Status Init() {
    std::vector<Keyed> buf;
    for (int64_t i = 0; i < src_.NumRows(); ++i) {
      GSOPT_RETURN_IF_ERROR(ctx_.Tick(kStage));
      Keyed k;
      const Tuple t = src_.row(i);
      cmp_.Fill(t, &k.keys);
      k.orig = i;
      Status cs = mem_.Charge(KeyedBytes(t, k), kStage);
      if (!cs.ok()) {
        // The staged rows no longer fit (or an alloc fault fired). With
        // spilling enabled, flush what we have as a sorted run and keep
        // going with an empty buffer; otherwise surface the trip.
        if (ctx_.spill == nullptr) return cs;
        GSOPT_RETURN_IF_ERROR(FlushRun(&buf));
        GSOPT_RETURN_IF_ERROR(mem_.Charge(KeyedBytes(t, k), kStage));
      }
      buf.push_back(std::move(k));
    }
    if (runs_.empty()) {
      auto less = [this](const Keyed& x, const Keyed& y) {
        return cmp_.Less(x, y);
      };
      // Presorted-input short-circuit: one linear scan instead of the full
      // comparison sort.
      if (!std::is_sorted(buf.begin(), buf.end(), less)) {
        std::stable_sort(buf.begin(), buf.end(), less);
      }
      mem_entries_ = std::move(buf);
      return Status::OK();
    }
    if (!buf.empty()) GSOPT_RETURN_IF_ERROR(FlushRun(&buf));
    GSOPT_RETURN_IF_ERROR(MergeToFanIn());
    return LoadHeads();
  }

  // The row a staged or read-back entry stands for.
  Tuple RowOf(const Keyed& k) const {
    return k.spilled ? Tuple(k.t) : src_.row(k.orig);
  }

  // Moves the next row out of the stream. *ok = false when exhausted.
  Status Next(Keyed* row, bool* ok) {
    if (runs_.empty()) {
      if (pos_ >= mem_entries_.size()) {
        *ok = false;
        return Status::OK();
      }
      *row = std::move(mem_entries_[pos_++]);
      *ok = true;
      return Status::OK();
    }
    size_t best = heads_.size();
    for (size_t r = 0; r < heads_.size(); ++r) {
      if (!head_live_[r]) continue;
      if (best == heads_.size() || cmp_.Less(heads_[r], heads_[best])) {
        best = r;
      }
    }
    if (best == heads_.size()) {
      *ok = false;
      return Status::OK();
    }
    // A swap, not a move: the run's next record is read into the caller's
    // previous row, reusing its buffers.
    std::swap(*row, heads_[best]);
    GSOPT_RETURN_IF_ERROR(Advance(best));
    *ok = true;
    return Status::OK();
  }

  // Adds the stream's sort and spill counters to `st`. Runs a consumer
  // stopped reading early report their bytes here.
  void FlushStats(OperatorStats* st) {
    for (SpillRun& run : runs_) run.Discard();
    if (st == nullptr) return;
    st->sort_runs += total_runs_;
    st->sort_merge_passes += merge_passes_;
    if (total_runs_ > 0) st->spilled = true;
  }

 private:
  Status FlushRun(std::vector<Keyed>* buf) {
    std::stable_sort(buf->begin(), buf->end(),
                     [this](const Keyed& x, const Keyed& y) {
                       return cmp_.Less(x, y);
                     });
    GSOPT_ASSIGN_OR_RETURN(SpillRun run, SpillRun::Create(ctx_));
    for (const Keyed& k : *buf) {
      GSOPT_RETURN_IF_ERROR(run.Write(RowOf(k), k.orig));
    }
    runs_.push_back(std::move(run));
    ++total_runs_;
    buf->clear();
    mem_.Release();
    return Status::OK();
  }

  // Reads the next record of run r into *k, its keys re-read from the
  // tuple. *ok = false when the run is exhausted.
  Status ReadOne(SpillRun* r, Keyed* k, bool* ok) {
    GSOPT_RETURN_IF_ERROR(r->Next(&k->t, &k->orig, ok));
    k->spilled = true;
    if (*ok) cmp_.Fill(k->t, &k->keys);
    return Status::OK();
  }

  // Merges groups of kMergeFanIn runs into single runs until at most
  // kMergeFanIn remain for the final streaming merge. Each group is merged
  // by this stream's own Next(): runs_ holds just the group while its
  // rows drain into the new run.
  Status MergeToFanIn() {
    while (runs_.size() > kMergeFanIn) {
      ++merge_passes_;
      std::vector<SpillRun> pass = std::move(runs_);
      std::vector<SpillRun> next;
      for (size_t base = 0; base < pass.size(); base += kMergeFanIn) {
        size_t end = std::min(pass.size(), base + kMergeFanIn);
        if (end - base == 1) {
          next.push_back(std::move(pass[base]));
          continue;
        }
        runs_.assign(std::make_move_iterator(pass.begin() + base),
                     std::make_move_iterator(pass.begin() + end));
        GSOPT_RETURN_IF_ERROR(LoadHeads());
        GSOPT_ASSIGN_OR_RETURN(SpillRun merged, SpillRun::Create(ctx_));
        Keyed row;
        bool ok = true;
        for (;;) {
          GSOPT_RETURN_IF_ERROR(ctx_.Tick(kStage));
          GSOPT_RETURN_IF_ERROR(Next(&row, &ok));
          if (!ok) break;
          GSOPT_RETURN_IF_ERROR(merged.Write(RowOf(row), row.orig));
        }
        next.push_back(std::move(merged));
      }
      runs_ = std::move(next);
    }
    return Status::OK();
  }

  Status LoadHeads() {
    heads_.resize(runs_.size());
    head_live_.assign(runs_.size(), 0);
    for (size_t r = 0; r < runs_.size(); ++r) {
      GSOPT_RETURN_IF_ERROR(runs_[r].Rewind());
      bool ok = false;
      GSOPT_RETURN_IF_ERROR(ReadOne(&runs_[r], &heads_[r], &ok));
      head_live_[r] = ok ? 1 : 0;
    }
    return Status::OK();
  }

  Status Advance(size_t r) {
    bool ok = false;
    GSOPT_RETURN_IF_ERROR(ReadOne(&runs_[r], &heads_[r], &ok));
    if (!ok) {
      head_live_[r] = 0;
      runs_[r].Discard();
    }
    return Status::OK();
  }

  static constexpr const char* kStage = "sort";

  const Relation& src_;
  const KeyCmp& cmp_;
  const ExecContext& ctx_;
  OpMemory mem_;

  std::vector<Keyed> mem_entries_;
  size_t pos_ = 0;

  std::vector<SpillRun> runs_;
  std::vector<Keyed> heads_;
  std::vector<char> head_live_;

  uint64_t total_runs_ = 0;
  uint64_t merge_passes_ = 0;
};

}  // namespace

StatusOr<Relation> Sort(const Relation& r, const SortSpec& spec,
                        const ExecContext& ctx) {
  KeyCmp cmp;
  for (const SortKey& k : spec) {
    int i = r.schema().Find(k.attr.rel, k.attr.name);
    if (i < 0) {
      return Status::InvalidArgument("sort: missing attribute " +
                                     k.attr.Qualified());
    }
    cmp.idx.push_back(i);
    cmp.desc.push_back(k.desc ? 1 : 0);
  }
  OperatorStats* st = ctx.stats;
  if (st != nullptr) {
    st->rows_in += static_cast<uint64_t>(r.NumRows());
    st->sort_rows += static_cast<uint64_t>(r.NumRows());
  }
  SortedStream stream(r, cmp, ctx);
  GSOPT_RETURN_IF_ERROR(stream.Init());

  Relation out(r.schema(), r.vschema());
  out.Reserve(r.NumRows());
  for (;;) {
    Keyed k;
    bool ok = false;
    GSOPT_RETURN_IF_ERROR(stream.Next(&k, &ok));
    if (!ok) break;
    if (k.spilled) {
      out.Add(std::move(k.t));
    } else {
      out.Add(r.row(k.orig));
    }
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "sort"));
  }
  stream.FlushStats(st);
  if (st != nullptr) st->rows_out += static_cast<uint64_t>(out.NumRows());
  return out;
}

Status CheckSorted(const Relation& r, const SortSpec& spec) {
  std::vector<int> idx;
  std::vector<char> desc;
  for (const SortKey& k : spec) {
    int i = r.schema().Find(k.attr.rel, k.attr.name);
    if (i < 0) {
      return Status::InvalidArgument("check-sorted: missing attribute " +
                                     k.attr.Qualified());
    }
    idx.push_back(i);
    desc.push_back(k.desc ? 1 : 0);
  }
  for (int64_t i = 1; i < r.NumRows(); ++i) {
    const Tuple prev = r.row(i - 1);
    const Tuple cur = r.row(i);
    for (size_t k = 0; k < idx.size(); ++k) {
      int c = CompareValuesTotal(prev.values[idx[k]], cur.values[idx[k]]);
      if (desc[k]) c = -c;
      if (c < 0) break;
      if (c > 0) {
        return Status::Internal(
            "rows " + std::to_string(i - 1) + ".." + std::to_string(i) +
            " violate ORDER BY " + SortSpecToString(spec) + ": " +
            prev.values[idx[k]].ToString() + " vs " +
            cur.values[idx[k]].ToString());
      }
    }
  }
  return Status::OK();
}

}  // namespace gsopt::exec
