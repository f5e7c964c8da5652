// CorpusDiscovery: repository-scale joinable-pair discovery — the GXJoin /
// QJoin direction from PAPERS.md layered on top of the paper's per-pair
// engine. A run (1) sketches every catalog column, (2) prunes the O(N^2)
// column-pair space to a ranked shortlist (PairPruner), and (3) executes
// the full per-pair pipeline (FindJoinablePairs + transformation discovery
// + equi-join) over the shortlist with a pair-level ParallelFor.
//
// Threading contract: the run constructs exactly ONE ThreadPool and shares
// it everywhere — signature computation, pair scoring, and the pair-level
// fan-out; the same pool is also handed down through DiscoveryOptions::pool
// and RowMatchOptions::pool, so per-pair phases never spawn pools of their
// own (a pair executing inside the fan-out falls back to its serial path,
// which is exactly what pair-level parallelism wants). Per-pair results are
// written into shortlist-order slots, so the output is bit-identical for
// every num_threads value.

#ifndef TJ_CORPUS_CORPUS_DISCOVERY_H_
#define TJ_CORPUS_CORPUS_DISCOVERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/pair_pruner.h"
#include "index/index_cache.h"
#include "join/join_engine.h"

namespace tj {

struct CorpusDiscoveryOptions {
  /// Pair pruning (floor, charset gate, shortlist cap).
  PairPrunerOptions pruner;

  /// Per-pair engine configuration (matching, discovery, join support).
  /// The pool and thread fields inside are overridden by the shared pool;
  /// everything else applies per pair.
  JoinOptions join;

  /// Pair-level worker threads (0 = hardware concurrency). Results are
  /// identical for every value; only wall time changes.
  int num_threads = 1;

  /// Shortlisted pairs with fewer candidate learning pairs than this stop
  /// right after candidate matching — discovery and the equi-join never run
  /// (forwarded into JoinOptions::min_learning_pairs for each pair).
  size_t min_learning_pairs = 1;

  /// Optional externally-owned cross-pair index cache (index/index_cache.h).
  /// When set, the pair fan-out pre-warms it with every distinct
  /// shortlisted target-side column's inverted index (in shortlist order;
  /// the row matcher indexes no source column) and each pair evaluation
  /// fetches its target index from it instead of rebuilding —
  /// byte-identical output either way. The handle is shared into every
  /// per-pair RowMatchOptions; entries key on table content fingerprints,
  /// so catalog mutations between runs self-invalidate and one cache can
  /// span incremental maintenance cycles. nullptr = legacy per-pair
  /// rebuilds.
  IndexCache* index_cache = nullptr;
};

/// Outcome of running the per-pair engine on one shortlisted column pair.
struct CorpusPairResult {
  /// The pruner's candidate (refs in catalog order + containment score).
  ColumnPairCandidate candidate;
  /// Orientation actually used: the more descriptive column is the source.
  ColumnRef source;
  ColumnRef target;
  /// Candidate row pairs the transformations were learned from.
  size_t learning_pairs = 0;
  /// Rows produced by the transform-then-equi-join.
  size_t joined_rows = 0;
  /// Coverage fraction of the best single transformation on the learning
  /// pairs.
  double top_coverage = 0.0;
  /// Transformations applied for the join (pretty-printed, reloadable via
  /// core/serialization).
  std::vector<std::string> transformations;
  /// Non-empty when the pair could not be evaluated (a column's bytes were
  /// unreadable even after the storage layer's fallbacks): the Status text.
  /// Such a result carries zero counts and no transformations — discovery
  /// degrades per pair instead of crashing the run.
  std::string error;
};

struct CorpusDiscoveryResult {
  /// Cross-table column pairs before pruning.
  size_t total_column_pairs = 0;
  /// Pairs rejected by the pruner's gates.
  size_t pruned_pairs = 0;
  /// Shortlisted pairs that could not be evaluated (see
  /// CorpusPairResult::error); 0 in a healthy run.
  size_t failed_pairs = 0;
  /// Per-pair outcomes in shortlist (ranked) order.
  std::vector<CorpusPairResult> results;

  double PruningRatio() const {
    if (total_column_pairs == 0) return 0.0;
    return static_cast<double>(pruned_pairs) /
           static_cast<double>(total_column_pairs);
  }

  /// Human-readable ranked summary (one line per evaluated pair). Accepts
  /// any column source (live catalog or an immutable serving snapshot) —
  /// only names are read, never cell bytes.
  std::string Describe(const CorpusColumnSource& source,
                       size_t max_items = 20) const;
};

/// Validates a CorpusDiscoveryOptions tree (pruner gates, per-pair engine
/// knobs) without aborting, so a daemon can reject a malformed client
/// request with a Status instead of dying on a downstream TJ_CHECK. OK for
/// every default-constructed options struct.
Status ValidateOptions(const CorpusDiscoveryOptions& options);

/// Runs corpus-scale discovery over every table registered in `catalog`.
/// Computes any missing column signatures first (cached in the catalog, so
/// repeated runs and serialized sketch caches are honored).
CorpusDiscoveryResult DiscoverJoinableColumns(
    TableCatalog* catalog, const CorpusDiscoveryOptions& options);

/// Runs the per-pair engine over an externally maintained shortlist — e.g.
/// an IncrementalPairPruner::Snapshot() after add/remove/update operations
/// — with the same shared-pool fan-out and shortlist-order output as
/// DiscoverJoinableColumns (which is exactly this after a from-scratch
/// ShortlistPairs). Candidates must come from this catalog's pruner so the
/// refs and orientation hints are valid. Pass the pool that already drove
/// the incremental maintenance to keep the whole run on one pool; with
/// `pool == nullptr` a pool of options.num_threads is constructed.
CorpusDiscoveryResult EvaluateShortlist(const TableCatalog& catalog,
                                        const PairPrunerResult& shortlist,
                                        const CorpusDiscoveryOptions& options,
                                        ThreadPool* pool = nullptr);

/// Source-generic variant of EvaluateShortlist: evaluates the shortlist
/// against any CorpusColumnSource — in particular a serve::CorpusSnapshot,
/// so a served query runs exactly the per-pair engine a batch run does and
/// produces bit-identical per-pair results. The budget-driven page-release
/// refcounting of the catalog overload does not apply here (releasing is a
/// live-catalog concern; snapshots release with their last reference).
CorpusDiscoveryResult EvaluateShortlist(const CorpusColumnSource& source,
                                        const PairPrunerResult& shortlist,
                                        const CorpusDiscoveryOptions& options,
                                        ThreadPool* pool);

/// Runs the per-pair engine on a single candidate — the serving layer's
/// transform-join path for a pair the pruner never shortlisted. Identical
/// to the result a shortlist evaluation of the same candidate produces.
/// When `use_orientation_hint` is false the candidate's a_is_source hint is
/// ignored and the columns are rescanned (for hand-built candidates that
/// carry no sketch hint).
CorpusPairResult EvaluateCandidate(const CorpusColumnSource& source,
                                   const ColumnPairCandidate& candidate,
                                   const CorpusDiscoveryOptions& options,
                                   ThreadPool* pool,
                                   bool use_orientation_hint);

}  // namespace tj

#endif  // TJ_CORPUS_CORPUS_DISCOVERY_H_
