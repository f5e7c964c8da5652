// LshIndex: locality-sensitive hashing over the catalog's MinHash sketches
// — the sublinear candidate-lookup structure behind the
// IncrementalPairPruner's probe path. Each column is filed under one bucket
// per non-empty sketch slot, keyed by the slot and its value, and two
// columns are LSH *candidates* when they share at least one bucket. Probing
// an index of N columns touches only the collision buckets, so folding a
// table into a million-table corpus scores O(collisions) pairs instead of
// O(N).
//
// Exactness contract: a pair collides iff at least one MinHash slot
// matches, i.e. iff its estimated Jaccard — and therefore its estimated
// containment score — is nonzero. At any positive containment floor every
// pair that can clear it is probed, and the post-probe exact
// ScoreColumnPair pass makes the shortlist bit-identical to a full
// ShortlistPairs scan. At a zero floor the pruner scores every tracked
// column instead of probing.

#ifndef TJ_CORPUS_LSH_INDEX_H_
#define TJ_CORPUS_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/signature.h"

namespace tj {

/// The slot-bucket index. Not thread-safe for concurrent mutation; the
/// pruner mutates it only from its (externally serialized) maintenance
/// calls.
class LshIndex {
 public:
  /// Indexes one column under its bucket keys. A column that sketched no
  /// grams has no non-empty slot and is not indexed: its estimated
  /// containment against anything is 0, so it can never clear a positive
  /// floor.
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

 private:
  /// Bucket keys of one signature in slot order, one per non-empty slot.
  static std::vector<uint64_t> BucketKeys(const ColumnSignature& signature);

  /// Bucket key -> indexed columns, in insertion order (Probe sorts).
  std::unordered_map<uint64_t, std::vector<ColumnRef>> buckets_;
  /// Reverse map for signature-free removal: every key each column was
  /// filed under. std::map so RemoveTable can range-scan a table's columns
  /// via lower_bound on {table_id, 0}.
  std::map<ColumnRef, std::vector<uint64_t>> keys_;
};

}  // namespace tj

#endif  // TJ_CORPUS_LSH_INDEX_H_
