#include "trace.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

int32_t TraceBuffer::Open(const char* name, uint64_t request) {
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void TraceBuffer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans are RAII-scoped, so the closing span is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::string ModuleOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

namespace {

bool IsRequestRoot(const SpanRecord& s) {
  return std::strcmp(s.name, "bench.request") == 0;
}

// Summed duration of each span's closed children.
std::vector<int64_t> ChildNs(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return child_ns;
}

}  // namespace

TraceSummary Summarize(const std::vector<const TraceBuffer*>& buffers) {
  TraceSummary out;
  for (const TraceBuffer* buffer : buffers) {
    const std::vector<SpanRecord>& spans = buffer->spans();
    const size_t n = spans.size();
    const std::vector<int64_t> child_ns = ChildNs(spans);
    std::vector<int64_t> last_child_end(n, 0);
    std::vector<int32_t> root(n, -1);
    out.spans += n;
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns < 0) {
        ++out.open_spans;
        continue;
      }
      if (s.parent < 0) {
        root[i] = static_cast<int32_t>(i);
        continue;
      }
      const size_t p = static_cast<size_t>(s.parent);
      root[i] = root[p];
      const SpanRecord& parent = spans[p];
      if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns ||
          s.start_ns < last_child_end[p] || s.request != parent.request) {
        ++out.bad_nesting;
      }
      last_child_end[p] = s.end_ns;
    }
    // Per-request sum of self times, indexed by root span.
    std::vector<int64_t> tree_self(n, 0);
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      if (s.end_ns < 0 || root[i] < 0) continue;
      const int64_t dur = s.end_ns - s.start_ns;
      int64_t self = dur - child_ns[i];
      if (self < 0) {
        ++out.negative_self;
        self = 0;
      }
      tree_self[static_cast<size_t>(root[i])] += self;
      const bool in_request =
          IsRequestRoot(spans[static_cast<size_t>(root[i])]);
      if (s.parent < 0) {
        if (in_request) {
          ++out.requests;
          out.request_ns += dur;
          out.remainder_ns += self;
        }
        continue;
      }
      SpanTotals& t =
          (in_request ? out.request_spans : out.side_spans)[s.name];
      ++t.calls;
      t.inclusive_ns += dur;
      t.self_ns += self;
    }
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = spans[i];
      if (s.parent >= 0 || s.end_ns < 0 || !IsRequestRoot(s)) continue;
      const int64_t error = tree_self[i] - (s.end_ns - s.start_ns);
      out.max_request_sum_error_ns =
          std::max(out.max_request_sum_error_ns, error < 0 ? -error : error);
    }
  }
  return out;
}

void WriteSpans(const std::vector<const TraceBuffer*>& buffers,
                std::ostream& out) {
  out << "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n";
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<SpanRecord>& spans = buffers[t]->spans();
    const std::vector<int64_t> child_ns = ChildNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.request << '\t'
          << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << (s.end_ns - s.start_ns - child_ns[i]) << '\n';
    }
  }
}

}  // namespace perfbench
