// Figure 4a — Per-module runtime as the dataset grows vertically (more
// rows; row length fixed at 28 as in the paper).
//
// Series are the paper's four modules: applying transformations, duplicate
// removal, placeholder generation, and unit extraction. dedup_s times the
// Cartesian product appended to the store; the seal that drops duplicates
// runs inside coverage's trie build, so it is part of apply_s. Paper shape:
// applying dominates and grows superlinearly; the pruning keeps the curve
// near-linear.
//
// apply_s is the default prefix-trie walk; paper_apply_s re-runs coverage
// with the paper's row-major scan on the same rows and store. The bench
// exits nonzero if the two coverage indexes differ.
//
// With --json PATH it also writes one record per row count: rows,
// transformations, apply_s, build_s (the part of apply_s spent building
// the trie and sealing the store), paper_apply_s, dedup_s, generation_s
// (dedup_s plus placeholder and unit extraction time: the whole generation
// pass), solution_s (top-k and the greedy set cover), and each path's
// unit_evals (memo misses: the walk's falls below the scan's as the root
// dispatch skips children whose head byte cannot start the target).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "core/coverage.h"
#include "core/discovery.h"
#include "datagen/synth.h"

namespace tj {
namespace {

/// One row count's record for --json.
struct Point {
  size_t rows;
  size_t transformations;
  double apply_s;
  double build_s;
  double paper_apply_s;
  double dedup_s;
  double generation_s;
  double solution_s;
  uint64_t unit_evals;
  uint64_t paper_unit_evals;
};

int Run(const std::string& json_path) {
  std::printf("== Figure 4a: Runtime breakdown vs number of rows ==\n\n");
  const SuiteOptions suite_options = SuiteOptionsFromEnv();
  SeriesPrinter series("rows", {"apply_s", "paper_apply_s", "dedup_s",
                                "placeholder_s", "unit_extraction_s",
                                "total_s"});
  int mismatches = 0;
  std::vector<Point> points;
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
    DiscoveryResult result =  // its sealed store is re-read below
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
    const DiscoveryStats& stats = result.stats;
    points.push_back({scaled, result.store.size(), stats.time_apply,
                      stats.time_build, paper_stats.time_apply,
                      stats.time_duplicate_removal,
                      stats.time_placeholder_gen + stats.time_unit_extraction +
                          stats.time_duplicate_removal,
                      stats.time_solution, stats.unit_evals,
                      paper_stats.unit_evals});
  }
  series.Print();
  std::printf("\n");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"bench_fig4a\",\n"
                 "  \"scale\": %.3f,\n"
                 "  \"coverage_identical\": %s,\n"
                 "  \"points\": [",
                 suite_options.scale, mismatches == 0 ? "true" : "false");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "%s\n    {\"rows\": %zu, \"transformations\": %zu, "
                   "\"apply_s\": %.6f, \"build_s\": %.6f, "
                   "\"paper_apply_s\": %.6f, \"dedup_s\": %.6f, "
                   "\"generation_s\": %.6f, \"solution_s\": %.6f, "
                   "\"unit_evals\": %llu, \"paper_unit_evals\": %llu}",
                   i == 0 ? "" : ",", p.rows, p.transformations, p.apply_s,
                   p.build_s, p.paper_apply_s, p.dedup_s, p.generation_s,
                   p.solution_s,
                   static_cast<unsigned long long>(p.unit_evals),
                   static_cast<unsigned long long>(p.paper_unit_evals));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return mismatches == 0 ? 0 : 1;
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
