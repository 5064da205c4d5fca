// Exec-internal: the lane machinery every kernel shares. A kernel runs on
// LanesFor() lanes -- the executor's when its input is large enough, else
// one -- and ForRanges() hands it row ranges: morsels on the executor's
// pool, or kBatchRows batches inline on the calling thread when serial. So
// a serial kernel is the one-lane case of its parallel self, not a second
// implementation.
//
// Lanes write private state (outputs, flags, counters) that is merged after
// the fan-in; LaneOutputs lets lane 0 write straight into the result. The
// pool itself never sees Status; kernels own cancellation through
// LaneControl: a failing lane records its Status and raises the cancel
// flag; other lanes observe it at range granularity and drain their
// remaining ranges without work. After the fan-in, First() reports the
// lowest-lane error so the surfaced Status is deterministic for a given
// set of failures.
#ifndef GSOPT_EXEC_LANE_CONTROL_H_
#define GSOPT_EXEC_LANE_CONTROL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/status.h"
#include "exec/eval.h"

namespace gsopt::exec::internal {

// Rows per serial range: large enough to amortize per-range dispatch (one
// budget tick, one stats update per range), small enough that a deadline
// or a cancelled sibling lane is noticed promptly.
inline constexpr int64_t kBatchRows = 2048;

struct LaneControl {
  explicit LaneControl(int lanes) : status(static_cast<size_t>(lanes)) {}

  bool cancelled() const { return cancel.load(std::memory_order_relaxed); }
  void Fail(int lane, Status s) {
    status[static_cast<size_t>(lane)] = std::move(s);
    cancel.store(true, std::memory_order_relaxed);
  }
  Status First() const {
    for (const Status& s : status) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  std::vector<Status> status;
  std::atomic<bool> cancel{false};
};

// Lanes for a kernel over `rows` input rows.
inline int LanesFor(const ExecContext& ctx, int64_t rows) {
  return ctx.Parallel(rows) ? ctx.executor->lanes() : 1;
}

// Probes the dispatch fault site when the kernel fans out.
inline Status CheckDispatch(const ExecContext& ctx, int lanes,
                            const char* stage) {
  if (ctx.fault == nullptr || lanes <= 1) return Status::OK();
  return ctx.fault->MaybeFail(FaultSite::kDispatch, stage);
}

// Runs body(lane, begin, end) over ranges covering [0, n): morsels on the
// executor's pool when lanes > 1, else kBatchRows batches inline on lane 0.
template <typename Body>
void ForRanges(const ExecContext& ctx, int lanes, int64_t n, Body&& body) {
  if (lanes > 1) {
    ctx.executor->pool().ParallelFor(n, ctx.executor->morsel_rows(), body);
    return;
  }
  for (int64_t begin = 0; begin < n; begin += kBatchRows) {
    body(0, begin, std::min(n, begin + kBatchRows));
  }
}

// Per-lane output relations: lane 0 is the result itself, the others are
// private and Splice() appends them in lane order after the fan-in. Lanes
// claim morsels in any order, so the result is bag-equal to the serial
// one, not row-for-row; RangeOutputs below keeps input order.
class LaneOutputs {
 public:
  LaneOutputs(Relation* out, int lanes) : out_(out) {
    for (int l = 1; l < lanes; ++l) {
      rest_.emplace_back(out->schema(), out->vschema());
    }
  }
  Relation& operator[](int lane) {
    return lane == 0 ? *out_ : rest_[static_cast<size_t>(lane - 1)];
  }
  int lanes() const { return static_cast<int>(rest_.size()) + 1; }
  void Splice() {
    for (Relation& r : rest_) out_->AppendFrom(std::move(r));
  }

 private:
  Relation* out_;
  std::vector<Relation> rest_;
};

// Per-range output relations for a kernel whose output keeps its input's
// row order at any lane count. Serially the ranges arrive in order and all
// write the result itself. Under lanes, the range starting at row `begin`
// writes its own chunk (ranges start at multiples of the morsel size) and
// Splice() appends the chunks in range order after the fan-in.
class RangeOutputs {
 public:
  RangeOutputs(Relation* out, const ExecContext& ctx, int lanes, int64_t n)
      : out_(out), morsel_(lanes > 1 ? ctx.executor->morsel_rows() : 0) {
    if (morsel_ > 0) {
      chunks_.resize(static_cast<size_t>((n + morsel_ - 1) / morsel_),
                     Relation(out->schema(), out->vschema()));
    } else {
      out->Reserve(n);
    }
  }
  // The output of range [begin, end); a chunk is reserved to the range.
  Relation& For(int64_t begin, int64_t end) {
    if (morsel_ == 0) return *out_;
    Relation& chunk = chunks_[static_cast<size_t>(begin / morsel_)];
    chunk.Reserve(end - begin);
    return chunk;
  }
  void Splice() {
    for (Relation& chunk : chunks_) out_->AppendFrom(std::move(chunk));
  }

 private:
  Relation* out_;
  int64_t morsel_;
  std::vector<Relation> chunks_;
};

inline void MergeLaneStats(const std::vector<OperatorStats>& lanes,
                           OperatorStats* into) {
  if (into == nullptr) return;
  for (const OperatorStats& s : lanes) into->MergeCountersFrom(s);
}

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_LANE_CONTROL_H_
