#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, s.start_ns);
      const int64_t hi = std::min(end, s.end_ns);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

double Tracer::RootMs() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return total;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
