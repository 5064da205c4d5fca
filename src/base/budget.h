// ResourceBudget: a cooperative resource governor threaded through every
// pipeline stage (normalize -> enumerate -> cost -> execute).
//
// The generalized enumeration (Definition 3.2 association trees + GS
// compensation) deliberately explores a much larger plan space than the
// [BHAR95a]/[GALI92a] baselines, so a production deployment must survive
// pathological queries without aborting or stalling. A budget carries up to
// three limits:
//
//   * a wall-clock deadline (steady_clock), checked cooperatively at loop
//     granularity with a strided clock probe so the hot paths pay one
//     counter increment per check and one clock read per kClockStride;
//   * a plan cap: total subplans the enumerator may emit before it stops
//     exploring alternatives and reports the space as truncated;
//   * a row cap: total tuples the executor kernels may materialize;
//   * a memory cap: bytes of operator working state (hash-join build
//     tables, aggregation group maps, spill read-back buffers) resident at
//     once. Inputs and outputs are exempt -- the interpreter materializes
//     relations eagerly and the row cap already governs output volume --
//     so the cap models the state a streaming engine would have to keep.
//     Unlike the other caps this one is usually survivable: kernels that
//     trip it switch to the out-of-core spill path (exec/spill.h) instead
//     of failing, and only report kResourceExhausted when spilling is
//     disabled or cannot help.
//
// Stages never kill each other preemptively: each checks the budget at its
// own safe points and returns Status(kResourceExhausted), which unwinds
// cleanly through StatusOr. The QueryOptimizer facade reacts to an expired
// deadline by returning the syntactic as-written plan, so callers always
// get a valid plan plus a DegradationReport instead of a crash or an
// unbounded run.
//
// A budget is shared by pointer across the stages of one
// optimize-and-execute attempt. Configuration (WithDeadline*/WithMax*) is
// single-threaded -- it happens before a stage starts -- but the hot-path
// probes (ChargeRows, CheckDeadline, CheckDeadlineNow) are thread-safe:
// a budget may be shared by concurrent queries, each charging rows and
// ticking the deadline from its own thread. Counters are relaxed-order
// atomics, so the fast path stays one uncontended fetch_add; expiry is a
// sticky atomic flag every sharer observes, so one expiry cancels them all
// cooperatively. The deadline is absolute: once expired, it stays expired
// for every later stage.
#ifndef GSOPT_BASE_BUDGET_H_
#define GSOPT_BASE_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>

#include "base/status.h"

namespace gsopt {

class ResourceBudget {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr uint64_t kUnlimited =
      std::numeric_limits<uint64_t>::max();
  // Clock reads are amortized: one real read per kClockStride deadline
  // checks (power of two; the hot-loop check is a mask and compare).
  static constexpr uint64_t kClockStride = 1024;

  ResourceBudget() = default;

  static ResourceBudget Unlimited() { return ResourceBudget(); }

  ResourceBudget& WithDeadlineAfter(std::chrono::microseconds d) {
    deadline_ = Clock::now() + d;
    has_deadline_ = true;
    expired_.store(false, std::memory_order_relaxed);
    return *this;
  }
  ResourceBudget& WithDeadline(Clock::time_point tp) {
    deadline_ = tp;
    has_deadline_ = true;
    expired_.store(false, std::memory_order_relaxed);
    return *this;
  }
  ResourceBudget& WithMaxPlans(uint64_t n) {
    max_plans_ = n;
    return *this;
  }
  ResourceBudget& WithMaxRows(uint64_t n) {
    max_rows_ = n;
    return *this;
  }
  ResourceBudget& WithMaxMemory(uint64_t bytes) {
    max_memory_ = bytes;
    return *this;
  }

  bool has_deadline() const { return has_deadline_; }
  uint64_t max_plans() const { return max_plans_; }
  uint64_t max_rows() const { return max_rows_; }
  uint64_t max_memory() const { return max_memory_; }
  uint64_t rows_charged() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t plans_charged() const {
    return plans_.load(std::memory_order_relaxed);
  }
  // Operator-state bytes currently charged; zero once every kernel has
  // unwound (the chaos oracle asserts this to catch accounting leaks).
  uint64_t memory_charged() const {
    return memory_.load(std::memory_order_relaxed);
  }
  uint64_t memory_peak() const {
    return memory_peak_.load(std::memory_order_relaxed);
  }
  // Deadline probes observed so far (only counted while a deadline is
  // set). An observability counter: regression tests use it to prove hot
  // loops actually tick at the granularity they claim.
  uint64_t deadline_checks() const {
    return tick_.load(std::memory_order_relaxed);
  }

  // Time until the deadline; zero when expired, kUnlimited-ish large when
  // no deadline is set.
  std::chrono::microseconds RemainingTime() const {
    if (!has_deadline_) return std::chrono::microseconds::max();
    auto now = Clock::now();
    if (now >= deadline_) return std::chrono::microseconds(0);
    return std::chrono::duration_cast<std::chrono::microseconds>(deadline_ -
                                                                 now);
  }

  // Hot-loop deadline probe: cheap relaxed counter, real clock read once
  // per kClockStride calls across all sharers combined. Once expired the
  // result is sticky, so later stages fail fast instead of re-burning
  // time, and every query sharing the budget observes the expiry within
  // one of its own probes.
  Status CheckDeadline(const char* stage) {
    if (expired_.load(std::memory_order_relaxed)) {
      return Exhausted(stage, "deadline cap exceeded");
    }
    if (!has_deadline_) return Status::OK();
    if ((tick_.fetch_add(1, std::memory_order_relaxed) &
         (kClockStride - 1)) != 0) {
      return Status::OK();
    }
    return CheckDeadlineNow(stage);
  }

  // Unstrided deadline probe for stage boundaries.
  Status CheckDeadlineNow(const char* stage) {
    if (expired_.load(std::memory_order_relaxed)) {
      return Exhausted(stage, "deadline cap exceeded");
    }
    if (!has_deadline_) return Status::OK();
    if (Clock::now() >= deadline_) {
      expired_.store(true, std::memory_order_relaxed);
      return Exhausted(stage, "deadline cap exceeded");
    }
    return Status::OK();
  }

  // Charges `n` materialized rows against the row cap and probes the
  // deadline. Executor kernels call this as they produce output, possibly
  // from concurrent queries sharing the budget: the single fetch_add makes
  // every row count exactly once, and exactly one charge observes the
  // old->new transition across the cap (later charges keep failing, which
  // is what cancels the other sharers).
  Status ChargeRows(uint64_t n, const char* stage) {
    uint64_t after = rows_.fetch_add(n, std::memory_order_relaxed) + n;
    if (after > max_rows_) {
      return Exhausted(stage, "row cap exceeded (" + std::to_string(after) +
                                  " > " + std::to_string(max_rows_) +
                                  " rows)");
    }
    return CheckDeadline(stage);
  }

  // Charges `n` bytes of operator working state. On over-cap the charge is
  // rolled back before returning, so a failed charge leaves the ledger
  // exactly as it found it -- callers that catch the error and degrade to
  // the spill path do not have to compensate. Thread-safe like ChargeRows;
  // the peak tracker is a relaxed CAS max (monotone, so races only ever
  // under-read a concurrent peak by a charge that also retries).
  Status ChargeMemory(uint64_t n, const char* stage) {
    uint64_t after = memory_.fetch_add(n, std::memory_order_relaxed) + n;
    if (after > max_memory_) {
      memory_.fetch_sub(n, std::memory_order_relaxed);
      return Exhausted(stage, "memory cap exceeded (" + std::to_string(after) +
                                  " > " + std::to_string(max_memory_) +
                                  " bytes of operator state)");
    }
    uint64_t peak = memory_peak_.load(std::memory_order_relaxed);
    while (after > peak && !memory_peak_.compare_exchange_weak(
                               peak, after, std::memory_order_relaxed)) {
    }
    return Status::OK();
  }
  void ReleaseMemory(uint64_t n) {
    memory_.fetch_sub(n, std::memory_order_relaxed);
  }

  // Plan accounting is advisory: the enumerator sizes its exploration to
  // PlansRemaining() and reports truncation instead of erroring, so a plan
  // cap degrades coverage rather than failing the query.
  void AddPlans(uint64_t n) { plans_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t PlansRemaining() const {
    if (max_plans_ == kUnlimited) return kUnlimited;
    uint64_t p = plans_charged();
    return p >= max_plans_ ? 0 : max_plans_ - p;
  }

 private:
  static Status Exhausted(const char* stage, const std::string& what) {
    return Status::ResourceExhausted(std::string(stage) + ": " + what);
  }

  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool> expired_{false};
  uint64_t max_plans_ = kUnlimited;
  uint64_t max_rows_ = kUnlimited;
  uint64_t max_memory_ = kUnlimited;
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> plans_{0};
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> memory_{0};
  std::atomic<uint64_t> memory_peak_{0};
};

// RAII ledger for one operator's working-state charges: Charge() forwards
// to the budget and remembers the amount, and the destructor releases
// whatever is still outstanding. This is the error-path hygiene primitive:
// a kernel that returns early -- over-cap, injected fault, expired
// deadline -- unwinds its charges by construction, so a failed query never
// leaves phantom bytes pinned in a shared budget. Not thread-safe: one
// reservation per operator, on one thread. A null budget makes every
// operation a no-op, keeping call sites unconditional.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  explicit MemoryReservation(ResourceBudget* budget) : budget_(budget) {}
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  MemoryReservation(MemoryReservation&& o) noexcept
      : budget_(o.budget_), bytes_(o.bytes_) {
    o.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& o) noexcept {
    if (this != &o) {
      Release();
      budget_ = o.budget_;
      bytes_ = o.bytes_;
      o.bytes_ = 0;
    }
    return *this;
  }
  ~MemoryReservation() { Release(); }

  Status Charge(uint64_t n, const char* stage) {
    if (budget_ == nullptr) return Status::OK();
    Status s = budget_->ChargeMemory(n, stage);
    if (s.ok()) bytes_ += n;
    return s;
  }
  void Release() {
    if (budget_ != nullptr && bytes_ > 0) budget_->ReleaseMemory(bytes_);
    bytes_ = 0;
  }
  uint64_t bytes() const { return bytes_; }

 private:
  ResourceBudget* budget_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace gsopt

#endif  // GSOPT_BASE_BUDGET_H_
