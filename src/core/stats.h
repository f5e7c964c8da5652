// DiscoveryStats: counters and per-phase wall times recorded by the
// discovery pipeline. Table 4 and Figures 3/4 of the paper are printed
// directly from this structure.

#ifndef TJ_CORE_STATS_H_
#define TJ_CORE_STATS_H_

#include <cstdint>

namespace tj {

struct DiscoveryStats {
  // --- Input shape ---
  uint64_t rows = 0;
  uint64_t skeletons = 0;
  uint64_t placeholders = 0;

  // --- Generation / dedup (pruning strategy 1) ---
  /// Cartesian-product tuples generated ("Generated trans." in Table 4).
  uint64_t generated_transformations = 0;
  /// Distinct transformations, set by ComputeCoverage's seal ("Trans. to
  /// try"); without enable_dedup, every generated copy.
  uint64_t unique_transformations = 0;
  /// Rows that hit max_transformations_per_row.
  uint64_t rows_capped = 0;

  // --- Coverage / negative-unit cache (pruning strategy 2) ---
  // The coverage path decides what the first three counters mean. The
  // paper's row-major scan (DiscoveryOptions::paper_coverage_scan, or
  // enable_neg_cache off) defines the values Table 4, Figure 3 and the
  // ablation bench print. The default prefix-trie walk reports its own
  // values: the same CoverageIndex and covering_pairs, different counts.
  /// Scan: (transformation, row) pairs skipped because one of the
  /// transformation's units was already known not to cover the row.
  /// Walk: pairs cut off at some prefix (a unit failed or did not continue
  /// the target). On both paths cache_hits + full_evaluations equals
  /// transformations x rows when the cache is on.
  uint64_t cache_hits = 0;
  /// Scan: (transformation, row) pairs evaluated unit by unit. Walk: pairs
  /// whose whole unit sequence matched a prefix of the target.
  uint64_t full_evaluations = 0;
  /// Unit evaluations performed (memo misses). The walk skips every root
  /// child whose first output byte cannot be target[0] without evaluating
  /// it (the head probe is not counted), so it counts about half the
  /// scan's evaluations (Synth-N, 1000 rows: 3.2 M vs 6.4 M). Below the
  /// root it still evaluates a prefix's units before reaching a later
  /// known-bad unit, where the scan would have skipped the transformation.
  uint64_t unit_evals = 0;
  /// (transformation, row) pairs that covered. Exact on both paths.
  uint64_t covering_pairs = 0;

  // --- Phase wall times (seconds), the Figure 4 breakdown ---
  // Wall clock per phase at every thread count. The three per-row
  // generation phases interleave inside one fused pass, so in parallel runs
  // their wall times are the generation pass's wall clock apportioned
  // pro-rata to the per-worker seconds below (they still sum to the
  // measured generation wall time).
  double time_placeholder_gen = 0;   // LCP build + skeleton enumeration
  double time_unit_extraction = 0;   // candidate units per placeholder
  // dedup_s: the Cartesian product and literal fusion (once per skeleton
  // and slot range) appended to the store's arena, plus the shard
  // concatenation in parallel runs; the seal itself is part of apply_s.
  double time_duplicate_removal = 0;
  double time_apply = 0;             // coverage: build, seal, walk/scan
  double time_build = 0;             // of time_apply: trie build and seal
  double time_solution = 0;          // top-k + greedy set cover
  double time_total = 0;

  // --- Per-phase worker seconds (summed across workers) ---
  // On one thread these track the wall times; with N workers they can
  // approach N x wall and expose the parallel speedup (wall vs cpu).
  double cpu_placeholder_gen = 0;
  double cpu_unit_extraction = 0;
  double cpu_duplicate_removal = 0;
  double cpu_apply = 0;
  double cpu_solution = 0;
  double cpu_total = 0;  // sum of the cpu_* phases above

  /// Fraction of generated transformations discarded as duplicates.
  double DuplicateRatio() const {
    if (generated_transformations == 0) return 0.0;
    return 1.0 - static_cast<double>(unique_transformations) /
                     static_cast<double>(generated_transformations);
  }

  /// Fraction of candidate (transformation, row) applications skipped by the
  /// negative-unit cache.
  double CacheHitRatio() const {
    const uint64_t considered = cache_hits + full_evaluations;
    if (considered == 0) return 0.0;
    return static_cast<double>(cache_hits) / static_cast<double>(considered);
  }

  /// Element-wise accumulation (for dataset-level means over many tables).
  DiscoveryStats& operator+=(const DiscoveryStats& other) {
    rows += other.rows;
    skeletons += other.skeletons;
    placeholders += other.placeholders;
    generated_transformations += other.generated_transformations;
    unique_transformations += other.unique_transformations;
    rows_capped += other.rows_capped;
    cache_hits += other.cache_hits;
    full_evaluations += other.full_evaluations;
    unit_evals += other.unit_evals;
    covering_pairs += other.covering_pairs;
    time_placeholder_gen += other.time_placeholder_gen;
    time_unit_extraction += other.time_unit_extraction;
    time_duplicate_removal += other.time_duplicate_removal;
    time_apply += other.time_apply;
    time_build += other.time_build;
    time_solution += other.time_solution;
    time_total += other.time_total;
    cpu_placeholder_gen += other.cpu_placeholder_gen;
    cpu_unit_extraction += other.cpu_unit_extraction;
    cpu_duplicate_removal += other.cpu_duplicate_removal;
    cpu_apply += other.cpu_apply;
    cpu_solution += other.cpu_solution;
    cpu_total += other.cpu_total;
    return *this;
  }
};

}  // namespace tj

#endif  // TJ_CORE_STATS_H_
