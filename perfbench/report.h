// Result reporting for the benchmark: named metrics with units, the
// percentile rules, failure accounting, and the one-line JSON result that
// ends every run's standard output.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr size_t kMinSamplesBeyondTail = 10;

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 for no samples.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// The q-percentile, or nullopt when fewer than kMinSamplesBeyondTail
/// samples lie strictly above it (a tail read off a handful of samples
/// swings from run to run, so it is withheld instead).
std::optional<double> TailPercentile(const std::vector<double>& samples,
                                     double q);

/// Attempts, failures and output divergences of one run. A failed attempt
/// (an error result or an ok:false response) is counted, not fatal; a
/// divergence (an answer that differs from the reference) fails the run.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> divergences;

  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Diverge(std::string what) { divergences.push_back(std::move(what)); }
  bool correct() const { return divergences.empty(); }
  double FailedRatio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list. Every metric is printed as a "metric <name> <value>
/// <unit>" line; the ones selected for the result object also go into the
/// final JSON line.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  const Metric* Find(const std::string& name) const;

  /// "metric <name> <value> <unit>" lines for every metric.
  std::string TextLines() const;

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  /// holding the metrics named in `selected` (all metrics when empty), in
  /// the order given. Values print with full precision.
  std::string JsonLine(const Outcome& outcome,
                       const std::vector<std::string>& selected) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process, in MB (1e6 bytes).
double PeakRssMb();

/// Resets the kernel's peak-RSS mark to the current RSS, so PeakRssMb()
/// afterwards reports the peak since the reset. False when the kernel
/// refuses (PeakRssMb() then keeps reporting the process peak).
bool ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
