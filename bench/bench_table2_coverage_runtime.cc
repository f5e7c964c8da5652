// Table 2 — Transformation coverage and runtime: our approach vs Auto-Join,
// under n-gram row matching (top panel) and golden row matching (bottom
// panel).
//
// Reported per dataset (means over its table pairs; times are totals):
//   Top Cov.   coverage of the single best transformation
//   Coverage   coverage of the covering set
//   #Trans.    size of the covering set
//   Time       discovery wall time (ours) / Auto-Join wall time
// Auto-Join columns show the union of per-subset transformations, mirroring
// the paper ("for a covering set, we took all transformations returned").
// Paper shape: our coverage ~1.00 everywhere, Auto-Join <= 0.45 with runtimes
// 3-4 orders of magnitude larger (often hitting the time cap).

// With --json PATH the bench additionally writes a machine-readable record:
// the coverage/runtime summary plus the storage-core metrics — cells-bytes
// (column arena footprint of the whole suite) and the postings and bytes of
// the flat CSR n-gram index over every join column.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/storage_metrics.h"
#include "benchlib/suite.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace tj {
namespace {

/// Per-panel aggregate for the JSON record.
struct PanelSummary {
  double mean_top_cov = 0.0;
  double mean_coverage = 0.0;
  double seconds = 0.0;
};

/// Storage-core metrics over the whole suite: arena footprint of every
/// table, n-gram index size over every join column.
StorageMetrics MeasureStorage(const std::vector<BenchDataset>& suite) {
  StorageMetrics m;
  for (const BenchDataset& dataset : suite) {
    for (const TablePair& pair : dataset.tables) {
      m.AddCells(pair.source);
      m.AddCells(pair.target);
      m.MeasureColumn(pair.SourceColumn());
      m.MeasureColumn(pair.TargetColumn());
    }
  }
  // Fill the peak once here so the printed summary and the JSON tail
  // report the same sample.
  m.peak_rss_bytes = PeakRssBytes();
  return m;
}

PanelSummary RunPanel(const std::vector<BenchDataset>& suite,
                      MatchingMode matching, ThreadPool* pool,
                      const char* title) {
  PanelSummary summary;
  std::printf("-- %s --\n", title);
  TablePrinter table({"Dataset", "TopCov", "(AJ)", "Coverage", "(AJ)",
                      "#Trans", "(AJ)", "Time", "(AJ Time)"});
  for (const BenchDataset& dataset : suite) {
    std::vector<double> top;
    std::vector<double> cover;
    std::vector<double> ntrans;
    double seconds = 0.0;
    std::vector<double> aj_top;
    std::vector<double> aj_cover;
    std::vector<double> aj_ntrans;
    double aj_seconds = 0.0;
    bool aj_any_timeout = false;
    const std::vector<DiscoveryEval> ours_all =
        EvaluateDiscoveryAll(dataset, matching, pool);
    for (const DiscoveryEval& ours : ours_all) {
      top.push_back(ours.top_coverage);
      cover.push_back(ours.cover_coverage);
      ntrans.push_back(static_cast<double>(ours.num_transformations));
      seconds += ours.seconds;
    }
    // Auto-Join runs under a per-table wall budget, so it stays sequential:
    // fanning budgeted runs out would let scheduling skew what each pair
    // accomplishes inside its cap.
    for (const TablePair& pair : dataset.tables) {
      const AutoJoinEval aj = EvaluateAutoJoin(pair, dataset, matching);
      aj_top.push_back(aj.top_coverage);
      aj_cover.push_back(aj.union_coverage);
      aj_ntrans.push_back(static_cast<double>(aj.num_transformations));
      aj_seconds += aj.seconds;
      aj_any_timeout |= aj.timed_out;
    }
    table.AddRow(
        {dataset.name, FormatDouble(Mean(top), 2),
         StrPrintf("(%.2f)", Mean(aj_top)), FormatDouble(Mean(cover), 2),
         StrPrintf("(%.2f)", Mean(aj_cover)), FormatDouble(Mean(ntrans), 2),
         StrPrintf("(%.2f)", Mean(aj_ntrans)), FormatSeconds(seconds),
         StrPrintf("(%s%s)", FormatSeconds(aj_seconds).c_str(),
                   aj_any_timeout ? ", capped" : "")});
    summary.mean_top_cov += Mean(top);
    summary.mean_coverage += Mean(cover);
    summary.seconds += seconds;
  }
  if (!suite.empty()) {
    summary.mean_top_cov /= static_cast<double>(suite.size());
    summary.mean_coverage /= static_cast<double>(suite.size());
  }
  table.Print();
  std::printf("\n");
  return summary;
}

int Run(const std::string& json_path) {
  std::printf("== Table 2: Coverage and runtime, ours vs Auto-Join ==\n");
  std::printf(
      "(Auto-Join runs under a per-table wall budget; 'capped' marks runs "
      "that\nhit it, the analogue of the paper's 650,000s cap.)\n\n");
  const SuiteOptions options = SuiteOptionsFromEnv();
  const std::vector<BenchDataset> suite = BuildSuite(options);
  ThreadPool pool(options.num_threads);
  const PanelSummary ngram =
      RunPanel(suite, MatchingMode::kNgram, &pool, "N-gram row matching");
  const PanelSummary golden =
      RunPanel(suite, MatchingMode::kGolden, &pool, "Golden row matching");

  const StorageMetrics storage = MeasureStorage(suite);
  PrintStorageSummary(storage);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"benchmark\": \"bench_table2\",\n"
        "  \"threads\": %d,\n"
        "  \"scale\": %.3f,\n"
        "  \"ngram_mean_top_cov\": %.6f,\n"
        "  \"ngram_mean_coverage\": %.6f,\n"
        "  \"ngram_seconds\": %.6f,\n"
        "  \"golden_mean_top_cov\": %.6f,\n"
        "  \"golden_mean_coverage\": %.6f,\n"
        "  \"golden_seconds\": %.6f,\n",
        ResolveNumThreads(options.num_threads), options.scale,
        ngram.mean_top_cov, ngram.mean_coverage, ngram.seconds,
        golden.mean_top_cov, golden.mean_coverage, golden.seconds);
    WriteStorageJsonTail(f, storage);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace tj

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return tj::Run(json_path);
}
