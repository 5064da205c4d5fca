// The three workloads, each in its untraced (end-to-end metrics) and
// traced (per-layer metrics) form. See perfbench/README.md for what each
// workload is and why it was chosen.
#ifndef PERFBENCH_RUNNERS_H_
#define PERFBENCH_RUNNERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where the traced run writes its spans; empty = not written.
  std::string trace_out;
  // Self-test only: drop one row of the first non-empty answer before it
  // is checked, which the answer check must report.
  bool corrupt_one_answer = false;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload; unknown names fail the run.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNERS_H_
