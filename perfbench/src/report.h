// Result reporting: named metrics with units, the final JSON line, and the
// process-level measurements (CPU time, peak RSS) every workload reports.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the JSON (sizes, guard verdicts).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  // Records a failed workload guard: the run is not correct.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("GUARD FAILED: " + why);
  }
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ToJson(const RunResult& result);

// Nearest-rank quantile of an unsorted sample (sorts a copy); 0 if empty.
double Quantile(std::vector<double> sample, double q);
double Median(std::vector<double> sample);

// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
// Peak resident set size of the process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
