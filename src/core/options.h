// DiscoveryOptions: the knobs of the transformation-discovery pipeline, and
// the fixed generation caps beside it. Defaults follow the paper's
// experimental setup (§6.2): 3 placeholders, TwoCharSplitSubstr disabled,
// no support threshold.

#ifndef TJ_CORE_OPTIONS_H_
#define TJ_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace tj {

class ThreadPool;

/// Occurrence anchors kept per placeholder (paper §5.1 observes nearly all
/// placeholders have a single source match).
inline constexpr int kMaxMatchesPerPlaceholder = 2;

/// Distinct split characters considered per placeholder when generating
/// SplitSubstr candidates.
inline constexpr size_t kMaxSplitChars = 8;

/// Distinct characters on each side of an occurrence considered as
/// delimiters for TwoCharSplitSubstr candidates.
inline constexpr size_t kMaxTwoCharNeighbors = 3;

/// Cap on tokenization variants per row (2^p growth guard).
inline constexpr size_t kMaxSkeletonsPerRow = 64;

struct DiscoveryOptions {
  /// Maximum placeholders per skeleton (the paper's p / Auto-Join tree
  /// depth). Skeletons above the cap are dropped; 3 in the paper's web,
  /// open-data and synthetic experiments, 4 on spreadsheet data.
  int max_placeholders = 3;

  /// TwoCharSplitSubstr is implemented but excluded from the paper's
  /// experiments (§6.2) to keep baselines tractable; default off.
  bool enable_twochar_split_substr = false;

  /// Break maximal-length placeholders at separator characters (paper
  /// §4.1.3, Lemma 4 case 1). Ablation toggle.
  bool tokenize_placeholders = true;

  /// Duplicate removal (pruning strategy 1), by ComputeCoverage's seal.
  /// Ablation toggle: when false duplicates are stored and evaluated.
  bool enable_dedup = true;

  /// Per-row negative-unit cache (pruning strategy 2). Ablation toggle.
  bool enable_neg_cache = true;

  /// Coverage runs the paper's row-major scan (§4.1.5: every transformation
  /// on every row, skipped when one of its units is known bad) instead of
  /// the default prefix-trie walk, which prunes once per shared unit prefix.
  /// Both yield the same CoverageIndex; they differ in speed and in what
  /// the cache_hits/full_evaluations/unit_evals counters mean (see
  /// DiscoveryStats), so the paper-reproduction benches set this to print
  /// the paper's counters. Without enable_neg_cache the scan always runs.
  bool paper_coverage_scan = false;

  /// Hard cap on Cartesian-product transformations generated per row
  /// (explosion guard; counted in DiscoveryStats::rows_capped).
  size_t max_transformations_per_row = 4096;

  /// Candidate units per placeholder slot (guard; rarely binding).
  size_t max_units_per_placeholder = 64;

  /// Minimum fraction of input rows a transformation must cover to be
  /// eligible for the final solution (1% for the noisy open-data benchmark,
  /// 0 elsewhere in Table 2).
  double min_support_fraction = 0.0;

  /// Number of top-coverage transformations reported.
  size_t top_k = 10;

  /// Worker threads for the generation and coverage phases. 0 = hardware
  /// concurrency, 1 = the serial reference path (the paper's setting, kept
  /// as the default so ablation timings stay comparable). Results are
  /// bit-identical across thread counts: shards are merged in row order, so
  /// only wall time changes. Per-phase DiscoveryStats time_* fields report
  /// wall clock at every thread count; the cpu_* fields carry the summed
  /// per-worker seconds. Counters stay exact.
  int num_threads = 1;

  /// Optional externally-owned worker pool shared across phases — and, at
  /// corpus scale, across table pairs (see src/corpus/). When set it
  /// overrides num_threads and no phase-local pool is constructed; the
  /// caller keeps the pool alive for the duration of the call. A discovery
  /// that itself runs inside a ParallelFor chunk of this pool degrades to
  /// the serial reference path automatically (same results).
  ThreadPool* pool = nullptr;
};

/// Validates a DiscoveryOptions against the invariants the pipeline's
/// internals otherwise only assert (TJ_CHECK) or silently misbehave on.
/// Returns InvalidArgument naming the offending field, so a long-lived
/// process (the serve daemon) can reject a malformed configuration instead
/// of aborting at use time. Defaults always validate.
Status ValidateOptions(const DiscoveryOptions& options);

}  // namespace tj

#endif  // TJ_CORE_OPTIONS_H_
