// The benchmark's workloads. Each run reads the inputs the generator wrote,
// times calls into the library's public functions, checks every output,
// and reports named metrics.
//
//   learn-deep   csv_join_tool path on 1 thread: ReadCsvFile + TransformJoin
//                over 12 Synth-N/-NL pairs at 200 rows plus one at 500 rows.
//   repo-scan    corpus_discovery_tool batch path on 4 threads over 80
//                planted Synth pairs + 400 noise tables.
//   serve-mixed  CorpusServer (pool of 2) over a corpus of the same shape:
//                3 closed-loop joinable clients + 1 open-loop update client.
//
// An untraced run (--trace 0) reports the end-to-end metrics, with times
// scaled to reference host speed (calibrate.h). A traced run (--trace 1)
// re-does the same work from the layers' public calls with one span per
// call and reports per-layer self times and counts.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kLearnDeep;
  uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  /// Input directory (see inputs.h); spans and the daemon socket go there.
  std::string dir;
  bool tiny = false;
  /// Self-check hooks: extra attempts that are made to fail, and one served
  /// answer altered before it is checked.
  int inject_failures = 0;
  bool alter_answer = false;
};

/// Metric names of the result object, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetrics();
const std::vector<std::string>& PerLayerMetrics();

struct RunResult {
  Report report;
  Outcome outcome;
};

/// Runs one workload. Returns a non-OK status only when the run could not
/// be carried out at all (missing inputs, daemon failed to start).
tj::Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
