// Thread-scaling microbenchmarks for the parallel discovery pipeline:
// coverage evaluation, end-to-end discovery, and inverted-index build at
// 1/2/4/hardware threads. Future PRs track scaling from these numbers
// (BENCH_*.json); items_per_second for the coverage benchmark is the
// (transformation, row) evaluation throughput.
//
// The thread count is the benchmark argument; 0 means hardware concurrency
// (ResolveNumThreads semantics). Results are bit-identical across thread
// counts — only the wall clock moves.

#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "common/thread_pool.h"
#include "core/discovery.h"
#include "core/example.h"
#include "datagen/synth.h"
#include "index/inverted_index.h"
#include "match/row_matcher.h"

namespace tj {
namespace {

struct Workload {
  SynthDataset dataset;  // owns the arenas the example-pair views point into
  std::vector<ExamplePair> rows;
  DiscoveryResult base;  // store + interner generated once, serially
};

/// Mutable because ComputeCoverage takes the store; it is sealed by the
/// discovery run, so every later call only reads it.
Workload& CoverageWorkload() {
  static Workload* workload = [] {
    auto* w = new Workload();
    w->dataset = GenerateSynth(SynthN(300, 5));
    const SynthDataset& ds = w->dataset;
    w->rows = MakeExamplePairs(ds.pair.SourceColumn(),
                               ds.pair.TargetColumn(),
                               ds.pair.golden.pairs());
    DiscoveryOptions options;
    options.num_threads = 1;
    w->base = DiscoverTransformations(w->rows, options);
    return w;
  }();
  return *workload;
}

void BM_CoverageThreads(benchmark::State& state) {
  Workload& w = CoverageWorkload();
  DiscoveryOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  size_t covering_pairs = 0;
  for (auto _ : state) {
    DiscoveryStats stats;
    const CoverageIndex index =
        ComputeCoverage(w.base.store, w.base.units, w.rows, options, &stats);
    covering_pairs = index.TotalPairs();
    benchmark::DoNotOptimize(covering_pairs);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.base.store.size()) *
                          static_cast<int64_t>(w.rows.size()));
  state.counters["threads"] =
      static_cast<double>(ResolveNumThreads(static_cast<int>(state.range(0))));
  state.counters["covering_pairs"] = static_cast<double>(covering_pairs);
}
BENCHMARK(BM_CoverageThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // hardware concurrency
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DiscoveryEndToEndThreads(benchmark::State& state) {
  const Workload& w = CoverageWorkload();
  DiscoveryOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverTransformations(w.rows, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.rows.size()));
  state.counters["threads"] =
      static_cast<double>(ResolveNumThreads(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_DiscoveryEndToEndThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_InvertedIndexBuildThreads(benchmark::State& state) {
  static const SynthDataset* ds =
      new SynthDataset(GenerateSynth(SynthN(400, 3)));
  const int threads = static_cast<int>(state.range(0));
  // Built once, outside the timed loop: Build runs on the caller's pool.
  ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NgramInvertedIndex::Build(ds->pair.SourceColumn(), &pool));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(ds->pair.SourceColumn().size()));
  state.counters["threads"] = static_cast<double>(ResolveNumThreads(threads));
}
BENCHMARK(BM_InvertedIndexBuildThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Raw subsystem overhead: a ParallelFor dispatch over trivial chunks,
// isolating the pool's fork/join cost from real work.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<size_t> sink{0};
    pool.ParallelFor(1024, static_cast<size_t>(pool.size()) * 4,
                     [&](int, size_t, size_t begin, size_t end) {
                       sink.fetch_add(end - begin,
                                      std::memory_order_relaxed);
                     });
    benchmark::DoNotOptimize(sink.load());
  }
  state.counters["threads"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace tj

BENCHMARK_MAIN();
