#include "exec/stats.h"

#include <algorithm>
#include <cstdio>

namespace gsopt::exec {

void OperatorStats::MergeCountersFrom(const OperatorStats& o) {
  rows_in += o.rows_in;
  rows_out += o.rows_out;
  batches += o.batches;
  hash_path = hash_path || o.hash_path;
  build_rows += o.build_rows;
  probe_rows += o.probe_rows;
  max_bucket = std::max(max_bucket, o.max_bucket);
  null_key_skips += o.null_key_skips;
  residual_evals += o.residual_evals;
  bloom = bloom || o.bloom;
  bloom_checks += o.bloom_checks;
  bloom_rejects += o.bloom_rejects;
  bloom_false_positives += o.bloom_false_positives;
  sort_rows += o.sort_rows;
  sort_runs += o.sort_runs;
  sort_merge_passes += o.sort_merge_passes;
  spilled = spilled || o.spilled;
  spill_partitions += o.spill_partitions;
  spill_bytes_written += o.spill_bytes_written;
  spill_bytes_read += o.spill_bytes_read;
  spill_recursions += o.spill_recursions;
  spill_chunks += o.spill_chunks;
}

double OperatorStats::QError() const {
  if (est_rows < 0.0) return 0.0;
  double est = std::max(est_rows, 1.0);
  double act = std::max(static_cast<double>(rows_out), 1.0);
  return std::max(est / act, act / est);
}

std::string OperatorStats::CountersString() const {
  std::string line;
  char buf[160];
  if (hash_path) {
    std::snprintf(buf, sizeof(buf),
                  " hash{build=%llu probe=%llu maxbucket=%llu nullskip=%llu "
                  "residual=%llu}",
                  static_cast<unsigned long long>(build_rows),
                  static_cast<unsigned long long>(probe_rows),
                  static_cast<unsigned long long>(max_bucket),
                  static_cast<unsigned long long>(null_key_skips),
                  static_cast<unsigned long long>(residual_evals));
    line += buf;
  }
  if (bloom) {
    std::snprintf(buf, sizeof(buf),
                  " bloom{checks=%llu rejects=%llu fp=%llu}",
                  static_cast<unsigned long long>(bloom_checks),
                  static_cast<unsigned long long>(bloom_rejects),
                  static_cast<unsigned long long>(bloom_false_positives));
    line += buf;
  }
  if (sort_rows > 0) {
    std::snprintf(buf, sizeof(buf), " sort{rows=%llu runs=%llu passes=%llu}",
                  static_cast<unsigned long long>(sort_rows),
                  static_cast<unsigned long long>(sort_runs),
                  static_cast<unsigned long long>(sort_merge_passes));
    line += buf;
  }
  if (spilled) {
    std::snprintf(buf, sizeof(buf),
                  " spill{parts=%llu written=%llu read=%llu recurse=%llu "
                  "chunks=%llu}",
                  static_cast<unsigned long long>(spill_partitions),
                  static_cast<unsigned long long>(spill_bytes_written),
                  static_cast<unsigned long long>(spill_bytes_read),
                  static_cast<unsigned long long>(spill_recursions),
                  static_cast<unsigned long long>(spill_chunks));
    line += buf;
  }
  return line;
}

std::string OperatorStats::ToString(int indent) const {
  std::string line(static_cast<size_t>(indent) * 2, ' ');
  line += op.empty() ? "op" : op;
  char buf[160];
  std::snprintf(buf, sizeof(buf), " in=%llu out=%llu time=%.3fms",
                static_cast<unsigned long long>(rows_in),
                static_cast<unsigned long long>(rows_out),
                static_cast<double>(wall.count()) / 1e6);
  line += buf;
  if (batches > 0) {
    std::snprintf(buf, sizeof(buf), " batches=%llu",
                  static_cast<unsigned long long>(batches));
    line += buf;
  }
  line += CountersString();
  line += '\n';
  for (const auto& c : children) line += c->ToString(indent + 1);
  return line;
}

void CollectQErrors(const OperatorStats& stats, std::vector<double>* out) {
  double q = stats.QError();
  if (q > 0.0) out->push_back(q);
  for (const auto& c : stats.children) CollectQErrors(*c, out);
}

}  // namespace gsopt::exec
