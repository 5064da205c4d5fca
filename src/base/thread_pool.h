// A small, work-stealing-free thread pool for morsel-driven parallel
// execution (Leis et al.'s morsel model, simplified): one shared atomic
// cursor hands out fixed-size row ranges ("morsels") to lanes, so load
// balancing falls out of claim order without deques or stealing.
//
// Shape:
//   * The pool owns `lanes - 1` worker threads; the thread that calls
//     ParallelFor participates as lane 0, so `lanes` is the true degree of
//     parallelism and a 1-lane pool spawns no threads at all.
//   * ParallelFor(n, morsel, body) invokes body(lane, begin, end) for
//     disjoint ranges covering [0, n), each starting at a multiple of
//     `morsel`, and returns once every range ran.
//     Completion is a full synchronization point: everything the lanes
//     wrote happens-before ParallelFor's return.
//   * One job runs at a time. Re-entrant calls (a body calling ParallelFor
//     on the same or another pool) and 1-lane pools execute inline on the
//     caller, so nesting degrades to serial instead of deadlocking.
//
// The pool itself never touches Status or budgets: kernels own
// cancellation by checking their shared flags inside `body`.
#ifndef GSOPT_BASE_THREAD_POOL_H_
#define GSOPT_BASE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gsopt {

class ThreadPool {
 public:
  using Body = std::function<void(int lane, int64_t begin, int64_t end)>;

  explicit ThreadPool(int lanes) : lanes_(lanes < 1 ? 1 : lanes) {
    workers_.reserve(static_cast<size_t>(lanes_ - 1));
    for (int i = 1; i < lanes_; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int lanes() const { return lanes_; }

  void ParallelFor(int64_t n, int64_t morsel, const Body& body) {
    if (n <= 0) return;
    if (morsel < 1) morsel = 1;
    // Inline when parallelism cannot help (single lane, one morsel) or
    // must not be attempted (called from inside a running body).
    if (lanes_ == 1 || n <= morsel || t_busy) {
      bool prev = t_busy;
      t_busy = true;
      body(0, 0, n);
      t_busy = prev;
      return;
    }
    std::lock_guard<std::mutex> job_lock(job_mu_);  // one job at a time
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      total_ = n;
      morsel_ = morsel;
      cursor_.store(0, std::memory_order_relaxed);
      active_workers_ = static_cast<int>(workers_.size());
      ++epoch_;
    }
    work_cv_.notify_all();
    RunMorsels(0, body, n, morsel);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return active_workers_ == 0; });
    body_ = nullptr;
  }

 private:
  void WorkerLoop(int lane) {
    uint64_t seen_epoch = 0;
    for (;;) {
      const Body* body;
      int64_t n, morsel;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [&] { return shutdown_ || epoch_ != seen_epoch; });
        if (shutdown_) return;
        seen_epoch = epoch_;
        body = body_;
        n = total_;
        morsel = morsel_;
      }
      RunMorsels(lane, *body, n, morsel);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --active_workers_;
      }
      done_cv_.notify_one();
    }
  }

  void RunMorsels(int lane, const Body& body, int64_t n, int64_t morsel) {
    bool prev = t_busy;
    t_busy = true;
    for (;;) {
      int64_t begin = cursor_.fetch_add(morsel, std::memory_order_relaxed);
      if (begin >= n) break;
      body(lane, begin, std::min(begin + morsel, n));
    }
    t_busy = prev;
  }

  // True while this thread is executing a ParallelFor body (of any pool);
  // a nested ParallelFor then runs inline instead of deadlocking on
  // job_mu_ or oversubscribing lanes.
  static thread_local bool t_busy;

  const int lanes_;
  std::vector<std::thread> workers_;

  std::mutex job_mu_;  // serializes ParallelFor calls across threads

  std::mutex mu_;  // guards everything below
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  uint64_t epoch_ = 0;
  int active_workers_ = 0;
  const Body* body_ = nullptr;
  int64_t total_ = 0;
  int64_t morsel_ = 1;

  std::atomic<int64_t> cursor_{0};
};

inline thread_local bool ThreadPool::t_busy = false;

}  // namespace gsopt

#endif  // GSOPT_BASE_THREAD_POOL_H_
