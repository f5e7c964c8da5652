#include "core/discovery.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/generator.h"

namespace tj {
namespace {

/// One generation shard: transformations for a contiguous row range,
/// appended to a shard-local store over a shard-local unit interner.
struct GenerationShard {
  UnitInterner units;
  TransformationStore store;
  DiscoveryStats stats;
};

/// Runs per-row generation over contiguous row shards in parallel, then
/// concatenates the shards in row order into `result`.
///
/// Determinism: re-interning a shard's unit table in local id order replays
/// the units in exactly the first-encounter order a serial run would have
/// seen for those rows, so by induction over shards the merged interner,
/// and the remapped shard arenas appended in row order, are identical to
/// the serial path's for any shard count.
void GenerateInParallel(const std::vector<ExamplePair>& rows,
                        const DiscoveryOptions& options, int num_threads,
                        DiscoveryResult* result) {
  // When no shared pool is supplied, never spawn more workers than rows.
  PoolRef pool_ref(options.pool,
                   static_cast<int>(std::min<size_t>(
                       static_cast<size_t>(num_threads), rows.size())));
  ThreadPool& pool = pool_ref.get();
  // Over-decompose so the ticket scheduler can balance rows with expensive
  // generation; the merge below is boundary-independent, so extra shards
  // only cost one more unit-table remap each.
  const size_t num_shards =
      std::min(rows.size(), static_cast<size_t>(pool.size()) * 4);
  std::vector<GenerationShard> shards(num_shards);

  pool.ParallelFor(rows.size(), num_shards,
                   [&](int /*worker*/, size_t shard, size_t begin,
                       size_t end) {
                     GenerationShard& s = shards[shard];
                     for (size_t row = begin; row < end; ++row) {
                       GenerateTransformationsForRow(
                           rows[row].source, rows[row].target, options,
                           &s.units, &s.store, &s.stats);
                     }
                   });

  ScopedTimer merge_timer(&result->stats.cpu_duplicate_removal);
  std::vector<UnitId> remap;
  std::vector<UnitId> mapped;
  for (GenerationShard& shard : shards) {
    remap.resize(shard.units.size());
    for (UnitId id = 0; id < shard.units.size(); ++id) {
      remap[id] = result->units.Intern(shard.units.Get(id));
    }
    const size_t shard_size = shard.store.size();
    for (TransformationId t = 0; t < shard_size; ++t) {
      mapped.clear();
      for (const UnitId id : shard.store.Units(t)) mapped.push_back(remap[id]);
      result->store.Append(mapped);
    }
    result->stats += shard.stats;
  }
}

/// Distributes the generation pass's measured wall clock across the three
/// interleaved per-row phases, pro-rata to the worker seconds each phase
/// accumulated. On one thread this reproduces the directly measured phase
/// times (plus their share of untimed per-row overhead); with N workers it
/// is the honest wall-clock attribution the fused pass allows.
void ApportionGenerationWall(double wall, DiscoveryStats* stats) {
  const double cpu = stats->cpu_placeholder_gen + stats->cpu_unit_extraction +
                     stats->cpu_duplicate_removal;
  if (cpu <= 0.0) {
    stats->time_duplicate_removal += wall;
    return;
  }
  stats->time_placeholder_gen += wall * (stats->cpu_placeholder_gen / cpu);
  stats->time_unit_extraction += wall * (stats->cpu_unit_extraction / cpu);
  stats->time_duplicate_removal += wall * (stats->cpu_duplicate_removal / cpu);
}

}  // namespace

double DiscoveryResult::TopCoverageFraction() const {
  if (num_rows == 0 || top.empty()) return 0.0;
  return static_cast<double>(top[0].coverage) /
         static_cast<double>(num_rows);
}

double DiscoveryResult::CoverSetCoverageFraction() const {
  if (num_rows == 0) return 0.0;
  return static_cast<double>(cover.covered_rows) /
         static_cast<double>(num_rows);
}

std::string DiscoveryResult::Describe(size_t max_items) const {
  std::string out;
  out += StrPrintf(
      "rows=%zu generated=%llu unique=%llu cache_hit=%.1f%% dup=%.1f%%\n",
      num_rows,
      static_cast<unsigned long long>(stats.generated_transformations),
      static_cast<unsigned long long>(stats.unique_transformations),
      100.0 * stats.CacheHitRatio(), 100.0 * stats.DuplicateRatio());
  out += StrPrintf("top coverage: %.3f, cover-set coverage: %.3f (%zu sets)\n",
                   TopCoverageFraction(), CoverSetCoverageFraction(),
                   cover.selected.size());
  const size_t n = std::min(max_items, cover.selected.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& ranked = cover.selected[i];
    out += StrPrintf("  [%u rows] %s\n", ranked.coverage,
                     store.Get(ranked.id).ToString(units).c_str());
  }
  return out;
}

DiscoveryResult DiscoverTransformations(const std::vector<ExamplePair>& rows,
                                        const DiscoveryOptions& options) {
  DiscoveryResult result;
  result.num_rows = rows.size();
  result.stats.rows = rows.size();
  Stopwatch total;

  // Phases 1-3 (per row): placeholders, skeletons, units, generation.
  const int num_threads = options.pool != nullptr
                              ? options.pool->size()
                              : ResolveNumThreads(options.num_threads);
  {
    Stopwatch generation_watch;
    if (num_threads == 1 || rows.size() < 2 || InParallelFor()) {
      for (const ExamplePair& row : rows) {
        GenerateTransformationsForRow(row.source, row.target, options,
                                      &result.units, &result.store,
                                      &result.stats);
      }
    } else {
      GenerateInParallel(rows, options, num_threads, &result);
    }
    ApportionGenerationWall(generation_watch.ElapsedSeconds(), &result.stats);
  }
  result.stats.unique_transformations = result.store.size();

  // Phase 4: the seal, then coverage with the negative-unit cache.
  result.coverage = ComputeCoverage(result.store, result.units, rows, options,
                                    &result.stats);

  // Phase 5: solution compilation (main thread: wall == worker seconds).
  {
    ScopedTimer timer(&result.stats.time_solution);
    ScopedTimer cpu_timer(&result.stats.cpu_solution);
    uint32_t min_support = 1;
    if (options.min_support_fraction > 0.0) {
      min_support = static_cast<uint32_t>(std::ceil(
          options.min_support_fraction * static_cast<double>(rows.size())));
      if (min_support == 0) min_support = 1;
    }
    result.top = TopKByCoverage(result.coverage, options.top_k, min_support);
    SetCoverOptions cover_options;
    cover_options.min_support = min_support;
    result.cover = GreedySetCover(result.coverage, rows.size(), cover_options);
  }

  result.stats.time_total = total.ElapsedSeconds();
  result.stats.cpu_total =
      result.stats.cpu_placeholder_gen + result.stats.cpu_unit_extraction +
      result.stats.cpu_duplicate_removal + result.stats.cpu_apply +
      result.stats.cpu_solution;
  return result;
}

}  // namespace tj
