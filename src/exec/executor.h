// Executor: the parallelism knob for the operator kernels.
//
// An Executor owns a ThreadPool and the two policy numbers the kernels
// consult: the minimum input size worth fanning out (below it, morsel
// setup costs more than it saves) and the morsel size itself. Kernels
// receive it through ExecContext; a null executor -- the default
// everywhere -- runs every kernel as its one-lane case on the calling
// thread (exec/lane_control.h). Parallel runs are proven bag-equal to
// serial ones by tests/exec/parallel_exec_test.cc.
//
// One Executor serves one query execution at a time (the underlying pool
// serializes jobs); share it across sequential queries freely to amortize
// thread start-up.
#ifndef GSOPT_EXEC_EXECUTOR_H_
#define GSOPT_EXEC_EXECUTOR_H_

#include <cstdint>

#include "base/thread_pool.h"

namespace gsopt::exec {

class Executor {
 public:
  // `threads` is the total degree of parallelism (the calling thread
  // counts as one lane); 1 or less means no worker threads at all.
  explicit Executor(int threads) : pool_(threads) {}

  int lanes() const { return pool_.lanes(); }
  ThreadPool& pool() { return pool_; }

  // Inputs smaller than this run on the serial kernels even when an
  // executor is attached. Tests lower it to force the parallel paths onto
  // small randomized inputs.
  int64_t min_parallel_rows() const { return min_parallel_rows_; }
  void set_min_parallel_rows(int64_t n) {
    min_parallel_rows_ = n < 1 ? 1 : n;
  }

  int64_t morsel_rows() const { return morsel_rows_; }
  void set_morsel_rows(int64_t n) { morsel_rows_ = n < 1 ? 1 : n; }

 private:
  ThreadPool pool_;
  int64_t min_parallel_rows_ = 2048;
  int64_t morsel_rows_ = 1024;
};

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_EXECUTOR_H_
