// gsopt_perfbench: the repository benchmark's binary. perfbench/run.py
// builds it and calls it as
//
//   gsopt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file>]
//   gsopt_perfbench --self-test
//
// A run prints notes (lines starting with '#') and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The exit
// code is 0 only when every answer matched its reference and every
// workload guard held.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "runners.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int Usage() {
  std::cerr << "usage: gsopt_perfbench --workload <serve_warm|plan_cold|"
               "mutate_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n"
               "       gsopt_perfbench --self-test\n";
  return 2;
}

RunResult Run(const RunOptions& options) {
  RunResult r = perfbench::RunWorkload(options);
  if (r.attempted == 0) r.Fail("no query was attempted");
  r.correct = r.correct && r.failed == 0;
  return r;
}

// Short runs of every workload: the traced run's span invariants hold and
// its answers check out, and a deliberately corrupted answer (one dropped
// row) is caught in both the untraced and the traced form.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("self-test %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const std::string& workload : perfbench::WorkloadNames()) {
    RunOptions o;
    o.workload = workload;
    o.seed = 7;
    o.seconds = 1.0;
    o.trace = true;
    RunResult traced = Run(o);
    for (const std::string& note : traced.notes) {
      std::printf("#   %s\n", note.c_str());
    }
    expect(traced.correct,
           workload + ": traced run is correct, spans nest, self times sum "
                      "to latency");
    for (bool trace : {false, true}) {
      o.trace = trace;
      o.corrupt_one_answer = true;
      RunResult corrupted = Run(o);
      expect(!corrupted.correct && corrupted.failed == 1,
             workload + (trace ? " traced" : " untraced") +
                 ": one dropped row is reported as exactly one failure");
    }
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0) return Usage();
  RunResult r = Run(options);
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("%s\n", perfbench::ToJson(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
