#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double q) {
  const double value = Percentile(samples, q);
  const auto beyond = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [value](double s) { return s > value; }));
  if (beyond < kMinSamplesBeyondTail) return std::nullopt;
  return value;
}

void Report::Add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::TextLines() const {
  std::string out;
  for (const Metric& m : metrics_) {
    out += "metric " + m.name + " " + FormatNumber(m.value) + " " + m.unit +
           "\n";
  }
  return out;
}

std::string Report::JsonLine(const Outcome& outcome,
                             const std::vector<std::string>& selected) const {
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Metric& m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  };
  if (selected.empty()) {
    for (const Metric& m : metrics_) emit(m);
  } else {
    for (const std::string& name : selected) {
      if (const Metric* m = Find(name)) emit(*m);
    }
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  // VmHWM honors ResetPeakRss; getrusage's ru_maxrss does not.
  if (FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) * 1024.0 / 1e6;
  }
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace perfbench
