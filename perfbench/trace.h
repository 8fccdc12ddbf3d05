// Outside-in spans for the traced benchmark run.
//
// The benchmark records a span around each call it makes into a layer's
// public functions: name, start, end, parent span and request id, plus a
// few name-specific counters. Spans stay in memory and are written out with
// the run's raw record when the run ends. A Trace is used from one thread.
#ifndef KGSEARCH_PERFBENCH_TRACE_H_
#define KGSEARCH_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/json.h"

namespace kgsearch::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index into Trace::spans(), -1 for a root
  uint32_t request = 0;
  std::array<int64_t, 6> counts{};  ///< meaning depends on the name
};

class Trace {
 public:
  /// Opens a span and returns its index.
  int32_t Begin(const char* name, uint32_t request, int32_t parent = -1) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }
  Span& at(int32_t index) { return spans_[static_cast<size_t>(index)]; }

  /// [name, start_ns, end_ns, parent, request, counts...] per span.
  JsonValue ToJson() const {
    JsonValue out = JsonValue::Array();
    for (const Span& s : spans_) {
      JsonValue row = JsonValue::Array();
      row.Append(JsonValue::String(s.name));
      row.Append(JsonValue::Int(s.start_ns));
      row.Append(JsonValue::Int(s.end_ns));
      row.Append(JsonValue::Int(s.parent));
      row.Append(JsonValue::Uint(s.request));
      for (int64_t c : s.counts) row.Append(JsonValue::Int(c));
      out.Append(std::move(row));
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace kgsearch::perfbench

#endif  // KGSEARCH_PERFBENCH_TRACE_H_
