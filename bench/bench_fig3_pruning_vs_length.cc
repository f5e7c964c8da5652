// Figure 3 — Effect of pruning as the input length grows.
//
// Synthetic tables with a fixed number of rows (100 in the paper) and row
// length swept from 20 to 280 characters. Reports the duplicate-
// transformation percentage and the cache hit ratio at each length.
// Paper shape: both curves stay high and the duplicate fraction climbs with
// length (up to ~98%).

#include <cstdio>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "core/discovery.h"
#include "datagen/synth.h"

namespace tj {
namespace {

void Run() {
  std::printf("== Figure 3: Pruning percentage vs input length ==\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  const size_t rows =
      static_cast<size_t>(100 * suite_options.scale) < 10
          ? 10
          : static_cast<size_t>(100 * suite_options.scale);
  std::printf("(rows fixed at %zu)\n\n", rows);

  SeriesPrinter series("length", {"duplicate_pct", "cache_hit_pct"});
  for (int length = 20; length <= 280; length += 40) {
    SynthOptions options;
    options.num_rows = rows;
    options.min_len = length;
    options.max_len = length;
    options.seed = 97 + static_cast<uint64_t>(length);
    const SynthDataset ds = GenerateSynth(options);
    const std::vector<ExamplePair> examples = MakeExamplePairs(
        ds.pair.SourceColumn(), ds.pair.TargetColumn(),
        ds.pair.golden.pairs());
    DiscoveryOptions discovery;
    discovery.max_transformations_per_row = 32768;  // match fig4b's setting
    // The paper's row-major coverage scan defines the cache hit ratio.
    discovery.paper_coverage_scan = true;
    const DiscoveryResult result =
        DiscoverTransformations(examples, discovery);
    series.AddPoint(length, {100.0 * result.stats.DuplicateRatio(),
                             100.0 * result.stats.CacheHitRatio()});
  }
  series.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace tj

int main() {
  tj::Run();
  return 0;
}
