// LshIndex: banded locality-sensitive hashing over the catalog's MinHash
// sketches — the sublinear candidate-lookup structure behind the
// IncrementalPairPruner's probe path. The 128-slot sketch of each column is
// split into `bands` groups of `rows_per_band` consecutive slots; each band
// hashes to one bucket key, and two columns are LSH *candidates* when they
// share at least one bucket. Probing an index of N columns touches only the
// collision buckets, so folding a table into a million-table corpus scores
// O(collisions) pairs instead of O(N).
//
// Exactness contract: with the default banding (rows_per_band = 1, one band
// per sketch slot) a pair collides iff at least one MinHash slot matches,
// i.e. iff its estimated Jaccard — and therefore its estimated containment
// score — is nonzero. Every pair that can clear a positive containment
// floor is then probed, and the post-probe exact ScoreColumnPair pass makes
// the shortlist bit-identical to a full ShortlistPairs scan
// (GuaranteesRecall tells callers when that holds). Other bandings
// (rows_per_band > 1, or fewer bands than slots) probe fewer pairs but may
// miss low-similarity survivors; CountLshMissedPairs (pair_pruner.h)
// measures exactly that. At a zero floor no banding is lossless, and the
// pruner scores every tracked column instead of probing.

#ifndef TJ_CORPUS_LSH_INDEX_H_
#define TJ_CORPUS_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "corpus/catalog.h"
#include "corpus/signature.h"

namespace tj {

struct LshOptions {
  /// Number of bands. The default — one band per sketch slot at the
  /// catalog's 128-hash default — makes collision equivalent to "any slot
  /// matches", the lossless setting (see the exactness contract above).
  size_t bands = 128;

  /// Consecutive sketch slots hashed into each band's bucket key. 1 is
  /// lossless; larger values trade recall at low similarity for fewer
  /// probe collisions (the classic (b, r) S-curve).
  size_t rows_per_band = 1;
};

/// InvalidArgument for degenerate bandings (0 bands / 0 rows hash nothing).
/// Defaults always validate.
Status ValidateOptions(const LshOptions& options);

/// The banded bucket index. Not thread-safe for concurrent mutation; the
/// pruner mutates it only from its (externally serialized) maintenance
/// calls.
class LshIndex {
 public:
  explicit LshIndex(LshOptions options = LshOptions())
      : options_(options) {}

  const LshOptions& options() const { return options_; }

  /// Indexes one column under its banded bucket keys. Columns that sketched
  /// no grams (distinct_ngrams == 0) are skipped entirely: their estimated
  /// containment against anything is 0, so they can never clear a positive
  /// floor — and their all-empty sketches would otherwise all collide with
  /// each other in every band.
  void Insert(ColumnRef ref, const ColumnSignature& signature);

  /// Drops every indexed column of `table_id`. Needs no signatures (the
  /// catalog has typically already tombstoned the table): each column's
  /// bucket keys were recorded at Insert time.
  void RemoveTable(uint32_t table_id);

  /// Every indexed column sharing at least one bucket with `signature`,
  /// deduplicated and sorted in catalog order — deterministic regardless of
  /// insertion history. The probing column itself is never indexed yet when
  /// the pruner calls this (probe-then-insert), so self-collisions cannot
  /// occur.
  std::vector<ColumnRef> Probe(const ColumnSignature& signature) const;

  void Clear();

  /// Distinct occupied buckets / indexed columns (stats surfaces).
  size_t num_buckets() const { return buckets_.size(); }
  size_t num_entries() const { return keys_.size(); }

  /// True when `a` and `b` share at least one banded bucket key — the
  /// collision predicate Probe implements, exposed so recall diagnostics
  /// can test pairs without building an index.
  static bool BandsCollide(const LshOptions& options,
                           const ColumnSignature& a,
                           const ColumnSignature& b);

  /// True when the banding provably probes every pair a full scan would
  /// keep at this floor: lossless banding (rows_per_band == 1, every slot
  /// covered by a band) and a positive containment floor. With floor == 0
  /// the full scan keeps zero-score pairs no banding can see, and with
  /// rows_per_band > 1 a pair needs `rows_per_band` consecutive matching
  /// slots to collide — both lose the guarantee.
  static bool GuaranteesRecall(const LshOptions& options, size_t num_hashes,
                               double min_containment);

 private:
  /// Bucket keys of one signature in band order (size = usable bands).
  std::vector<uint64_t> BandKeys(const ColumnSignature& signature) const;

  LshOptions options_;
  /// Bucket key -> indexed columns, in insertion order (Probe sorts).
  std::unordered_map<uint64_t, std::vector<ColumnRef>> buckets_;
  /// Reverse map for signature-free removal: every key each column was
  /// filed under. std::map so RemoveTable can range-scan a table's columns
  /// via lower_bound on {table_id, 0}.
  std::map<ColumnRef, std::vector<uint64_t>> keys_;
};

}  // namespace tj

#endif  // TJ_CORPUS_LSH_INDEX_H_
