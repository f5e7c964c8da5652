// In-memory span recorder for the traced replays. Each call into a layer
// gets one span (name, start, end, parent span, request id); spans are kept
// in memory and written out once, when the run ends. A layer's self time is
// its span's duration minus the part of that interval its child spans
// cover.
//
// Single-threaded by design: the replays that use it run serially.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  uint64_t request = 0;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span as a child of the innermost open span.
  int Begin(const std::string& name, uint64_t request);
  void End(int span);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, uint64_t request)
        : tracer_(tracer), span_(tracer->Begin(name, request)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int span_;
  };

  /// Self time per span name, in milliseconds.
  std::map<std::string, double> SelfMs() const;
  /// Summed duration of the root spans, in milliseconds.
  double RootMs() const;

  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
