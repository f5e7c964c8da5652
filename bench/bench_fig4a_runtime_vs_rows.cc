// Figure 4a — Per-module runtime as the dataset grows vertically (more
// rows; row length fixed at 28 as in the paper).
//
// Series are the paper's four modules: applying transformations, duplicate
// removal (generation + hash-consing), placeholder generation, and unit
// extraction. Paper shape: applying dominates and grows superlinearly; the
// pruning keeps the curve near-linear.
//
// apply_s is the default prefix-trie walk; paper_apply_s re-runs coverage
// with the paper's row-major scan on the same rows and store. The bench
// exits nonzero if the two coverage indexes differ.

#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "core/coverage.h"
#include "core/discovery.h"
#include "datagen/synth.h"

namespace tj {
namespace {

int Run() {
  std::printf("== Figure 4a: Runtime breakdown vs number of rows ==\n\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  SeriesPrinter series("rows", {"apply_s", "paper_apply_s", "dedup_s",
                                "placeholder_s", "unit_extraction_s",
                                "total_s"});
  int mismatches = 0;
  const size_t row_counts[] = {100, 250, 500, 1000, 2000};
  for (size_t rows : row_counts) {
    const auto scaled =
        static_cast<size_t>(static_cast<double>(rows) * suite_options.scale);
    if (scaled < 4) continue;
    SynthOptions options;
    options.num_rows = scaled;
    options.min_len = 28;
    options.max_len = 28;
    options.seed = 1009 + rows;
    const SynthDataset ds = GenerateSynth(options);
    const std::vector<ExamplePair> examples = MakeExamplePairs(
        ds.pair.SourceColumn(), ds.pair.TargetColumn(),
        ds.pair.golden.pairs());
    const DiscoveryResult result =
        DiscoverTransformations(examples, DiscoveryOptions());
    DiscoveryOptions paper;
    paper.paper_coverage_scan = true;
    DiscoveryStats paper_stats;
    const CoverageIndex paper_coverage = ComputeCoverage(
        result.store, result.units, examples, paper, &paper_stats);
    if (!(paper_coverage == result.coverage)) {
      std::fprintf(stderr,
                   "rows=%zu: prefix-trie coverage differs from the paper "
                   "scan\n",
                   scaled);
      ++mismatches;
    }
    series.AddPoint(static_cast<double>(scaled),
                    {result.stats.time_apply, paper_stats.time_apply,
                     result.stats.time_duplicate_removal,
                     result.stats.time_placeholder_gen,
                     result.stats.time_unit_extraction,
                     result.stats.time_total});
  }
  series.Print();
  std::printf("\n");
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tj

int main() { return tj::Run(); }
