// End-to-end transform-then-join (paper §4.2 and §6.5): find candidate row
// pairs, discover transformations, keep those above a support threshold,
// apply them to the whole source column, and equi-join on the transformed
// values.

#ifndef TJ_JOIN_JOIN_ENGINE_H_
#define TJ_JOIN_JOIN_ENGINE_H_

#include <string>
#include <vector>

#include "core/discovery.h"
#include "core/options.h"
#include "match/metrics.h"
#include "match/row_matcher.h"
#include "table/table_pair.h"

namespace tj {

/// How candidate row pairs for learning are obtained.
enum class MatchingMode {
  kNgram,   // Algorithm 1 n-gram representative matching
  kGolden,  // use the benchmark's golden pairs (the paper's bottom panels)
};

struct JoinOptions {
  MatchingMode matching = MatchingMode::kNgram;
  RowMatchOptions match_options;
  DiscoveryOptions discovery;
  /// Transformations must cover at least this fraction of the learning pairs
  /// to be applied for the join (5% in Table 3; 2% for open data).
  double min_join_support = 0.05;
  /// When > 0, at most this many candidate pairs are sampled (uniformly,
  /// seeded) before discovery — the paper samples open data to 3000 pairs.
  size_t sample_pairs = 0;
  /// With fewer candidate pairs than this after sampling, discovery and
  /// the join are skipped entirely (JoinResult reports learning_pairs and
  /// nothing else) — the corpus driver's cheap way out of unlearnable
  /// pairs. 0 disables the gate.
  size_t min_learning_pairs = 0;
};

struct JoinResult {
  /// Pairs produced by the equi-join over transformed source values.
  std::vector<RowPair> joined;
  /// Quality against the benchmark's golden matching.
  PrfMetrics metrics;
  /// The transformations that were applied (pretty-printed).
  std::vector<std::string> applied_transformations;
  /// Number of candidate pairs used for learning (after sampling).
  size_t learning_pairs = 0;
  /// Wall time of the discovery phase alone (seconds).
  double discovery_seconds = 0.0;
  /// Full result of the discovery phase (stats, stores, coverage).
  DiscoveryResult discovery;
};

/// Runs the full pipeline on a benchmark table pair and evaluates against
/// its golden matching.
///
/// Threading: when either options.discovery or options.match_options
/// resolves to more than one thread and neither carries an external pool,
/// ONE ThreadPool is constructed here and shared by every phase (index
/// builds, row scan, generation, coverage) instead of each phase spawning
/// its own short-lived pool.
JoinResult TransformJoin(const TablePair& pair, const JoinOptions& options);

/// Column-level entry point used by the corpus driver (src/corpus/), where
/// table pairs have no benchmark golden matching: identical pipeline, with
/// the golden set optional. `golden` may be nullptr — metrics then stay
/// zero and MatchingMode::kGolden yields no learning pairs.
JoinResult TransformJoinColumns(const Column& source, const Column& target,
                                const PairSet* golden,
                                const JoinOptions& options);

/// Applies each transformation to every source value and equi-joins the
/// transformed values against the target column (hash join, many-to-many).
/// Shared by our engine and the Auto-Join baseline's join evaluation.
std::vector<RowPair> ApplyAndEquiJoin(const Column& source,
                                      const Column& target,
                                      const TransformationStore& store,
                                      const UnitInterner& units,
                                      const std::vector<TransformationId>& ids);

/// Validates a JoinOptions tree: its own thresholds plus the nested
/// RowMatchOptions and DiscoveryOptions. InvalidArgument names the
/// offending field; defaults always validate.
Status ValidateOptions(const JoinOptions& options);

}  // namespace tj

#endif  // TJ_JOIN_JOIN_ENGINE_H_
