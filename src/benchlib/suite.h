// The benchmark suite: the seven datasets of the paper's evaluation (§6.1)
// with their per-dataset configuration (§6.2), plus the evaluation runners
// shared by the table/figure benches.

#ifndef TJ_BENCHLIB_SUITE_H_
#define TJ_BENCHLIB_SUITE_H_

#include <string>
#include <vector>

#include "baselines/autojoin.h"
#include "core/options.h"
#include "core/stats.h"
#include "join/join_engine.h"
#include "match/metrics.h"
#include "match/row_matcher.h"
#include "table/table_pair.h"

namespace tj {

class ThreadPool;

/// One benchmark dataset: a set of table pairs evaluated together (means are
/// reported across pairs, as in the paper).
struct BenchDataset {
  std::string name;
  std::vector<TablePair> tables;
  /// Discovery configuration (placeholder cap etc., §6.2).
  DiscoveryOptions discovery;
  /// Row-matching configuration (thread count; the n-gram sizes are the
  /// paper's, kMinGram..kMaxGram).
  RowMatchOptions match;
  /// Candidate pairs are sampled down to this count before discovery
  /// (0 = no sampling). The paper samples open data to 3000 pairs.
  size_t sample_pairs = 0;
  /// Join-time minimum support (Table 3: 5%, open data 2%).
  double join_support = 0.05;
  /// Auto-Join per-table time budget in this suite's benches.
  double autojoin_budget_seconds = 1.0;
};

struct SuiteOptions {
  uint64_t seed = 42;
  /// Scales the synthetic/open-data row counts and the number of generated
  /// tables (1.0 = defaults documented in DESIGN.md; benches read
  /// TJ_BENCH_SCALE from the environment).
  double scale = 1.0;
  /// Worker threads for discovery and row matching in every dataset
  /// (0 = hardware concurrency, 1 = the paper's serial setting; benches
  /// read TJ_NUM_THREADS from the environment). Results are identical
  /// across thread counts — only wall time changes; DiscoveryStats time_*
  /// fields stay wall clock per phase (cpu_* carries worker seconds), and
  /// a parallel TransformJoin shares one pool across its phases.
  int num_threads = 1;
  bool include_webtables = true;
  bool include_spreadsheet = true;
  bool include_opendata = true;
  bool include_synth = true;
};

/// Reads TJ_BENCH_SCALE (default 1.0; a value must be finite, above 0 and
/// at most 1024) and TJ_NUM_THREADS (default 1; a whole number in
/// [0, 1024]) from the environment. Anything else keeps the default.
SuiteOptions SuiteOptionsFromEnv();

/// Builds the full dataset suite: web tables, spreadsheet, open data,
/// Synth-50, Synth-50L, Synth-500, Synth-500L.
std::vector<BenchDataset> BuildSuite(const SuiteOptions& options);

// ---------------------------------------------------------------------------
// Evaluation runners (one table pair at a time; benches aggregate).
// ---------------------------------------------------------------------------

/// Row-matching evaluation for Table 1.
struct RowMatchEval {
  PrfMetrics metrics;
  size_t pairs = 0;
  double seconds = 0.0;
};
RowMatchEval EvaluateRowMatching(const TablePair& pair,
                                 const RowMatchOptions& options = {});

/// Discovery evaluation for Tables 2/4: learning pairs from n-gram matching
/// or the golden set (sampled if configured), then full discovery.
struct DiscoveryEval {
  double top_coverage = 0.0;    // best single transformation
  double cover_coverage = 0.0;  // covering set
  size_t num_transformations = 0;
  double seconds = 0.0;
  DiscoveryStats stats;
  size_t learning_pairs = 0;
};
DiscoveryEval EvaluateDiscovery(const TablePair& pair,
                                const BenchDataset& config,
                                MatchingMode matching);

/// Auto-Join evaluation for Table 2 (same learning pairs as ours).
struct AutoJoinEval {
  double top_coverage = 0.0;
  double union_coverage = 0.0;
  size_t num_transformations = 0;
  double seconds = 0.0;
  bool timed_out = false;
};
AutoJoinEval EvaluateAutoJoin(const TablePair& pair,
                              const BenchDataset& config,
                              MatchingMode matching);

/// Learning pairs for a table under a matching mode + the dataset's sampling
/// policy (exposed so Table 2's two panels share the exact same input).
/// The pairs are views into `pair`'s frozen column arenas — zero copies —
/// so `pair` must outlive them (every runner here uses them inline).
std::vector<ExamplePair> LearningPairs(const TablePair& pair,
                                       const BenchDataset& config,
                                       MatchingMode matching);

// ---------------------------------------------------------------------------
// Dataset-level runners: evaluate every table pair of a dataset, fanning
// out per pair on one shared pool (one chunk per pair; each pair writes its
// own slot, so results are identical for every pool size — pair costs vary,
// so the ticket scheduler balances). The pool is also plumbed into each
// pair's match/discovery options: a pair evaluated inside the fan-out
// degrades its inner phases to the serial path (InParallelFor), while a
// single-pair dataset hands the whole pool to the inner phases instead.
// With pool == nullptr these are exactly the sequential per-pair loops the
// table benches always ran. Timing fields (`seconds`, stats time_*/cpu_*)
// vary run to run; every other field is deterministic
// (tests/benchlib_test.cc asserts this at 1/2/4/8 threads).
//
// EvaluateAutoJoin deliberately has no *All variant: Auto-Join runs under
// a per-table wall budget, so fanning it out would let scheduling skew
// what each pair accomplishes inside its cap — keep it sequential.
// ---------------------------------------------------------------------------

std::vector<RowMatchEval> EvaluateRowMatchingAll(const BenchDataset& config,
                                                 ThreadPool* pool = nullptr);
std::vector<DiscoveryEval> EvaluateDiscoveryAll(const BenchDataset& config,
                                                MatchingMode matching,
                                                ThreadPool* pool = nullptr);

/// Simple mean helper for per-dataset aggregation.
double Mean(const std::vector<double>& values);

}  // namespace tj

#endif  // TJ_BENCHLIB_SUITE_H_
