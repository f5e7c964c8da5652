// PairPruner: turns the O(N^2) cross-table column-pair space into a short,
// deterministically ranked shortlist using only the catalog's cached
// signatures. A pair survives when its estimated n-gram containment clears
// a configurable floor (and the columns' character sets overlap at all);
// everything else is pruned before a single inverted index is built. This
// is what makes corpus-scale discovery tractable: the per-pair engine only
// runs on pairs that could plausibly produce representative gram matches.
//
// Two front ends share one scoring path:
//  * ShortlistPairs — one-shot scan of the whole catalog, and the
//    reference the incremental pruner is tested against.
//  * IncrementalPairPruner — a live shortlist maintained across catalog
//    AddTable/RemoveTable/UpdateTable operations. Adding a table probes an
//    LSH index (lsh_index.h) with the table's sketches and scores only the
//    colliding columns, and every snapshot is bit-identical to a
//    from-scratch ShortlistPairs over the same catalog state.

#ifndef TJ_CORPUS_PAIR_PRUNER_H_
#define TJ_CORPUS_PAIR_PRUNER_H_

#include <cstddef>
#include <map>
#include <optional>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/lsh_index.h"

namespace tj {

class ThreadPool;

struct PairPrunerOptions {
  /// Floor on the estimated n-gram containment (signature.h). Joinable
  /// synthetic pairs score ~0.4+ while unrelated alphanumeric columns score
  /// ~0, so the default keeps a wide recall margin; 0 disables pruning (the
  /// brute-force baseline).
  double min_containment = 0.05;

  /// Skip pairs whose charset masks share no character class at all (an
  /// all-digits id column against an all-letters name column can share no
  /// n-gram). Computed on the same normalized text as the sketches.
  bool require_charset_overlap = true;

  /// Columns with fewer rows are not considered join candidates.
  size_t min_rows = 2;

  /// Keep at most this many top-ranked candidates (0 = unlimited).
  size_t max_candidates = 0;
};

/// One surviving cross-table column pair. `a` < `b` in catalog order; the
/// source/target orientation is carried as a sketch-derived hint.
struct ColumnPairCandidate {
  ColumnRef a;
  ColumnRef b;
  /// Estimated n-gram containment from the sketches (the ranking key).
  double score = 0.0;
  /// Sketch-based orientation hint: true when `a` should be the source
  /// (its mean cell length is >= b's — longer, more descriptive values feed
  /// the transformation search; the shorter-units-toward-longer heuristic).
  /// Derived from the signatures' mean_length, which equals the columns'
  /// AverageLength exactly, so downstream consumers can orient the pair
  /// without rescanning either column.
  bool a_is_source = true;
};

struct PairPrunerResult {
  /// Survivors ranked by score descending, ties broken by catalog order of
  /// (a, b) — fully deterministic for a given catalog.
  std::vector<ColumnPairCandidate> shortlist;
  /// Cross-table column pairs considered.
  size_t total_pairs = 0;
  /// Pairs rejected by the floor/charset/min_rows gates (excludes any
  /// max_candidates truncation).
  size_t pruned_pairs = 0;

  double PruningRatio() const {
    if (total_pairs == 0) return 0.0;
    return static_cast<double>(pruned_pairs) /
           static_cast<double>(total_pairs);
  }
};

/// The gates on one pair of sketches: both columns hold at least min_rows
/// rows, their charsets overlap (when required), and the estimated n-gram
/// containment clears the floor. Returns that containment when the pair
/// survives.
std::optional<double> ScoreSignaturePair(const ColumnSignature& a,
                                         const ColumnSignature& b,
                                         const PairPrunerOptions& options);

/// Scores one cross-table column pair (a < b in catalog order) against the
/// gates. Returns true and fills `out` when the pair survives. Both scan
/// front ends call exactly this, so incremental and from-scratch scores are
/// identical by construction. A column without a signature (its sketch
/// could not be read) fails the gates.
bool ScoreColumnPair(const TableCatalog& catalog, ColumnRef a, ColumnRef b,
                     const PairPrunerOptions& options,
                     ColumnPairCandidate* out);

/// Scores every cross-table column pair from the catalog's signatures —
/// in parallel over the pair space when `pool` is given (per-chunk survivor
/// buffers merged in chunk order, so the shortlist is identical for every
/// pool size). Requires ComputeSignatures() to have run (TJ_CHECK).
PairPrunerResult ShortlistPairs(const TableCatalog& catalog,
                                const PairPrunerOptions& options,
                                ThreadPool* pool = nullptr);

/// Validates a PairPrunerOptions (containment floor in range) with an
/// InvalidArgument instead of downstream misbehavior. Defaults always
/// validate.
Status ValidateOptions(const PairPrunerOptions& options);

/// Live shortlist over a mutating catalog. Survivor candidates are held in
/// one vector that table-level removal filters; Snapshot() re-ranks them
/// (cheap — scoring dominates) and returns a result bit-identical to
/// ShortlistPairs on the catalog's current live state.
///
/// The caller drives maintenance: after catalog.AddTable + the catalog's
/// ComputeSignatures, call OnTableAdded with the new id; after
/// catalog.RemoveTable call OnTableRemoved; after catalog.UpdateTable (+
/// ComputeSignatures) call OnTableUpdated.
class IncrementalPairPruner {
 public:
  explicit IncrementalPairPruner(PairPrunerOptions options = {})
      : options_(options) {}

  const PairPrunerOptions& options() const { return options_; }

  /// Clears any state and folds in every live table of the catalog, one
  /// OnTableAdded per table in id order. Requires ComputeSignatures() to
  /// have run.
  void Rebuild(const TableCatalog& catalog, ThreadPool* pool = nullptr);

  /// Probes the LSH index with each of `table_id`'s sketches, exact-scores
  /// only the tracked columns colliding in >= 1 bucket, merges the
  /// survivors in, then indexes the table's sketches. A zero floor keeps
  /// zero-score pairs, which share no bucket, so there every tracked column
  /// is scored instead. In parallel over
  /// partner tables when `pool` is given (each partner's survivors land in
  /// their own slot, so results are identical for every pool size).
  /// Requires the table's signatures.
  void OnTableAdded(const TableCatalog& catalog, uint32_t table_id,
                    ThreadPool* pool = nullptr);

  /// Drops every survivor involving `table_id` and its index entries. No
  /// rescoring.
  void OnTableRemoved(uint32_t table_id);

  /// Rescores `table_id` against the rest (remove + add).
  void OnTableUpdated(const TableCatalog& catalog, uint32_t table_id,
                      ThreadPool* pool = nullptr);

  /// Cross-table column pairs exact-scored by the most recent Rebuild /
  /// OnTableAdded / OnTableUpdated — the probe collisions (every tracked
  /// column at a zero floor), the incremental-cost metric bench_corpus
  /// reports.
  size_t last_scored_pairs() const { return last_scored_pairs_; }

  /// Pairs exact-scored across the pruner's whole lifetime (every Rebuild /
  /// OnTableAdded / OnTableUpdated) — the sublinear-cost figure the
  /// 10k-table bench reports against the exhaustive scan's quadratic count.
  size_t cumulative_scored_pairs() const { return cumulative_scored_pairs_; }

  /// The LSH index of every tracked column with a non-empty sketch
  /// (stats surfaces read its bucket and entry counts).
  const LshIndex& lsh_index() const { return lsh_; }

  /// Ranked shortlist + totals; see the class comment for how it relates
  /// to ShortlistPairs(catalog, options) over the same live tables.
  PairPrunerResult Snapshot() const;

 private:
  PairPrunerOptions options_;
  /// Unranked survivors of every tracked table pair.
  std::vector<ColumnPairCandidate> survivors_;
  /// Column count of each tracked table, recorded at add time — the catalog
  /// has typically tombstoned a table before OnTableRemoved runs, so the
  /// count must not be re-queried then.
  std::map<uint32_t, uint32_t> table_columns_;
  /// Sum of table_columns_ values (columns currently folded in).
  size_t tracked_columns_total_ = 0;
  LshIndex lsh_;
  /// Cross-table column pairs over the tracked tables, kept arithmetically
  /// from table_columns_ so the totals match ShortlistPairs without storing
  /// a record per scored pair.
  size_t total_pairs_ = 0;
  size_t last_scored_pairs_ = 0;
  size_t cumulative_scored_pairs_ = 0;
};

}  // namespace tj

#endif  // TJ_CORPUS_PAIR_PRUNER_H_
