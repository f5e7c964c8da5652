// Table 4 — Pruning performance: generated vs to-try transformations,
// duplicate ratio, and negative-unit-cache hit ratio, under both matchings.
//
// Paper shape: roughly half of generated transformations are duplicates on
// real data; cache hit ratios exceed 50% everywhere and 90% on synthetic and
// open data.

#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace tj {
namespace {

void RunPanel(const std::vector<BenchDataset>& suite, MatchingMode matching,
              ThreadPool* pool, const char* title) {
  std::printf("-- %s --\n", title);
  TablePrinter table({"Dataset", "Generated trans.", "Trans. to try",
                      "Duplicate trans.", "Cache hit ratio"});
  for (const BenchDataset& dataset : suite) {
    std::vector<double> generated;
    std::vector<double> unique;
    std::vector<double> dup_ratio;
    std::vector<double> hit_ratio;
    for (const DiscoveryEval& eval :
         EvaluateDiscoveryAll(dataset, matching, pool)) {
      generated.push_back(
          static_cast<double>(eval.stats.generated_transformations));
      unique.push_back(static_cast<double>(eval.stats.unique_transformations));
      dup_ratio.push_back(eval.stats.DuplicateRatio());
      hit_ratio.push_back(eval.stats.CacheHitRatio());
    }
    table.AddRow({dataset.name, FormatDouble(Mean(generated), 1),
                  FormatDouble(Mean(unique), 1),
                  StrPrintf("%.1f%%", 100.0 * Mean(dup_ratio)),
                  StrPrintf("%.1f%%", 100.0 * Mean(hit_ratio))});
  }
  table.Print();
  std::printf("\n");
}

void Run() {
  std::printf("== Table 4: Pruning performance ==\n\n");
  const SuiteOptions options = SuiteOptionsFromEnv();
  // The paper's row-major coverage scan defines the cache hit ratio.
  std::vector<BenchDataset> suite = BuildSuite(options);
  for (BenchDataset& dataset : suite) {
    dataset.discovery.paper_coverage_scan = true;
  }
  ThreadPool pool(options.num_threads);
  RunPanel(suite, MatchingMode::kNgram, &pool, "N-gram row matching");
  RunPanel(suite, MatchingMode::kGolden, &pool, "Golden row matching");
}

}  // namespace
}  // namespace tj

int main() {
  tj::Run();
  return 0;
}
