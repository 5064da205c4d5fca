// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a gsopt module's public functions; nothing inside src/ is
// instrumented. Each worker thread owns one TraceBuffer, so recording takes
// no lock. A span records its name, start, end, parent span and request
// id. Names are "<module>.<what>" (e.g. "enumerate.enumerate"); the part
// before the first '.' is the layer the time is charged to. Roots are
// named "bench.<kind>":
//
//   bench.request   one served query; its duration is the traced latency
//   bench.verify    checks run beside a request (the monolithic Optimize
//                   call the split pipeline is compared with)
//   bench.probe     measurements that re-run part of a request
//                   (Catalog::Get of every scanned leaf)
//   bench.write     one catalog write (mutate_mix)
//
// A span's self time is its duration minus the time its child spans
// cover, so the self times of a request's spans sum to its latency.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = nullptr;  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = -1;         // -1 while open
  int32_t parent = -1;         // index into the same buffer; -1 for roots
  uint64_t request = 0;
};

// One thread's spans. Disabled buffers record nothing and read no clock,
// which is what the untraced half of the overhead comparison runs with.
class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int32_t Open(const char* name, uint64_t request);
  void Close(int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
};

// RAII span; a no-op on a disabled (or null) buffer.
class Span {
 public:
  Span(TraceBuffer* buffer, const char* name, uint64_t request)
      : buffer_(buffer != nullptr && buffer->enabled() ? buffer : nullptr),
        index_(buffer_ != nullptr ? buffer_->Open(name, request) : -1) {}
  ~Span() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceBuffer* buffer_;
  int32_t index_;
};

// Per-name totals over every span of one root kind.
struct SpanTotals {
  uint64_t calls = 0;
  int64_t inclusive_ns = 0;
  int64_t self_ns = 0;
};

struct TraceSummary {
  // Span name -> totals, for spans under bench.request roots.
  std::map<std::string, SpanTotals> request_spans;
  // Span name -> totals, for spans under every other root kind.
  std::map<std::string, SpanTotals> side_spans;
  uint64_t requests = 0;
  int64_t request_ns = 0;        // summed request latency
  int64_t remainder_ns = 0;      // self time of the request roots
  uint64_t spans = 0;
  // Structural checks (the self-test asserts these are zero):
  uint64_t open_spans = 0;       // never closed
  uint64_t bad_nesting = 0;      // child outside its parent, or overlapping
                                 // an earlier sibling
  uint64_t negative_self = 0;    // children cover more than the span
  // Largest |sum of self times - latency| over all requests, in ns.
  int64_t max_request_sum_error_ns = 0;
};

// Folds every buffer into one summary.
TraceSummary Summarize(const std::vector<const TraceBuffer*>& buffers);

// Writes every span as one tab-separated line:
//   thread  index  parent  request  name  start_ns  end_ns  self_ns
void WriteSpans(const std::vector<const TraceBuffer*>& buffers,
                std::ostream& out);

// "exec.execute" -> "exec".
std::string ModuleOf(const std::string& span_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
