// Shared bench entry point: every bench binary closes with
//
//   GSOPT_BENCH_MAIN(bench_gs_cost);
//
// instead of BENCHMARK_MAIN(), and thereby emits a machine-readable
// baseline next to its console output: BENCH_<name>.json in the working
// directory (Google Benchmark's JSON schema -- per-benchmark wall/cpu
// times, iterations and user counters such as rows -- plus a context
// block carrying the bench name and the git revision the binary was built
// from). Perf PRs diff these files against the committed trajectory to
// prove a win; see EXPERIMENTS.md "Machine-readable baselines".
//
// Explicit --benchmark_out= on the command line wins over the default
// destination, so CI can redirect without editing the binaries.
#ifndef GSOPT_BENCH_REPORT_H_
#define GSOPT_BENCH_REPORT_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

// Injected by bench/CMakeLists.txt from `git rev-parse`; "unknown" when
// built outside a checkout.
#ifndef GSOPT_GIT_REV
#define GSOPT_GIT_REV "unknown"
#endif

namespace gsopt::bench {

inline int RunBenchmarks(const char* name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    out_flag = "--benchmark_out=BENCH_" + std::string(name) + ".json";
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  benchmark::AddCustomContext("bench_name", name);
  benchmark::AddCustomContext("git_rev", GSOPT_GIT_REV);
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace gsopt::bench

#define GSOPT_BENCH_MAIN(name)                             \
  int main(int argc, char** argv) {                        \
    return gsopt::bench::RunBenchmarks(#name, argc, argv); \
  }

#endif  // GSOPT_BENCH_REPORT_H_
