// Microbenchmarks (google-benchmark) for the hot paths: unit evaluation,
// LCP-table construction, skeleton enumeration, candidate generation, the
// coverage inner loop, and the n-gram inverted index.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/generator.h"
#include "core/skeleton.h"
#include "datagen/synth.h"
#include "index/inverted_index.h"
#include "text/edit_distance.h"
#include "text/lcp.h"

namespace tj {
namespace {

const char kSource[] = "prus-czarnecki, andrzej michal 1974-03-06";
const char kTarget[] = "a prus-czarnecki (1974)";

void BM_UnitEvalSubstr(benchmark::State& state) {
  const Unit u = Unit::MakeSubstr(2, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.Eval(kSource));
  }
}
BENCHMARK(BM_UnitEvalSubstr);

void BM_UnitEvalSplit(benchmark::State& state) {
  const Unit u = Unit::MakeSplit(' ', 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.Eval(kSource));
  }
}
BENCHMARK(BM_UnitEvalSplit);

void BM_UnitEvalSplitSubstr(benchmark::State& state) {
  const Unit u = Unit::MakeSplitSubstr(' ', 1, 0, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.Eval(kSource));
  }
}
BENCHMARK(BM_UnitEvalSplitSubstr);

void BM_UnitEvalTwoCharSplitSubstr(benchmark::State& state) {
  const Unit u = Unit::MakeTwoCharSplitSubstr(',', '-', 0, 0, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.Eval(kSource));
  }
}
BENCHMARK(BM_UnitEvalTwoCharSplitSubstr);

void BM_LcpBuild(benchmark::State& state) {
  const std::string source(static_cast<size_t>(state.range(0)), 'x');
  std::string target = source;
  target += "abc";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcpTable::Build(source, target));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LcpBuild)->Range(16, 256)->Complexity(benchmark::oNSquared);

void BM_SkeletonEnumeration(benchmark::State& state) {
  const LcpTable lcp = LcpTable::Build(kSource, kTarget);
  const DiscoveryOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateSkeletons(kTarget, lcp, options));
  }
}
BENCHMARK(BM_SkeletonEnumeration);

void BM_GenerateTransformationsForRow(benchmark::State& state) {
  const DiscoveryOptions options;
  for (auto _ : state) {
    UnitInterner units;
    TransformationStore store;
    DiscoveryStats stats;
    GenerateTransformationsForRow(kSource, kTarget, options, &units, &store,
                                  &stats);
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(BM_GenerateTransformationsForRow);

void BM_DiscoveryEndToEnd(benchmark::State& state) {
  const SynthDataset ds =
      GenerateSynth(SynthN(static_cast<size_t>(state.range(0)), 5));
  const std::vector<ExamplePair> rows = MakeExamplePairs(
      ds.pair.SourceColumn(), ds.pair.TargetColumn(), ds.pair.golden.pairs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DiscoverTransformations(rows, DiscoveryOptions()));
  }
}
BENCHMARK(BM_DiscoveryEndToEnd)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_InvertedIndexBuild(benchmark::State& state) {
  const SynthDataset ds = GenerateSynth(SynthN(100, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NgramInvertedIndex::Build(ds.pair.SourceColumn()));
  }
  state.SetLabel("100 rows, n=4..20");
}
BENCHMARK(BM_InvertedIndexBuild)->Unit(benchmark::kMillisecond);

void BM_InvertedIndexLookup(benchmark::State& state) {
  const SynthDataset ds = GenerateSynth(SynthN(100, 3));
  const NgramInvertedIndex index =
      NgramInvertedIndex::Build(ds.pair.SourceColumn());
  const std::string probe(ds.pair.SourceColumn().Get(0).substr(0, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Lookup(probe));
  }
}
BENCHMARK(BM_InvertedIndexLookup);

void BM_EditDistance(benchmark::State& state) {
  const std::string a(static_cast<size_t>(state.range(0)), 'a');
  std::string b = a;
  b[b.size() / 2] = 'x';
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Range(16, 256);

}  // namespace
}  // namespace tj

BENCHMARK_MAIN();
