// CorpusSnapshot: the immutable, refcounted view of the catalog a served
// query runs against. Built once per mutation batch from the catalog's
// shared tables (TableCatalog::SharedTable — the refcount seam) plus the
// IncrementalPairPruner's shortlist, and stamped with the catalog's
// mutation epoch. Readers resolve names, filter the shortlist, and feed
// the per-pair engine entirely from the snapshot; the catalog can move on
// to later epochs (including RemoveTable/UpdateTable of pinned tables)
// without invalidating anything a snapshot holds — superseded tables are
// freed when the last snapshot referencing them dies.
//
// Threading: a snapshot is immutable after Build and safe to share across
// threads by shared_ptr. Cell-byte access (ResidentColumn during query
// evaluation) may transparently re-map evicted spilled tables. Concurrent
// queries may race each other's re-maps, which Column::EnsureResident
// allows; they must never race an Evict, so the server evaluates under the
// shared side of its compute gate and evicts only under the exclusive
// side.

#ifndef TJ_SERVE_SNAPSHOT_H_
#define TJ_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/pair_pruner.h"

namespace tj::serve {

/// Default IndexCache byte budget (the CLI's --index-cache-budget
/// default). Snapshots and the daemon cache no indexes; it stays here for
/// its existing users until the batch-side index cache goes.
inline constexpr size_t kDefaultIndexCacheBudgetBytes = 256ull << 20;

class CorpusSnapshot : public CorpusColumnSource {
 public:
  /// Captures the catalog's current live tables (with their content
  /// fingerprints), the pruner's current shortlist, and the mutation
  /// epoch. The pruner must be maintained against exactly this catalog
  /// state (the usual incremental contract). The third parameter is unused
  /// (snapshots carry no index cache); it stays for existing callers until
  /// the batch-side index cache goes.
  static std::shared_ptr<const CorpusSnapshot> Build(
      const TableCatalog& catalog, const IncrementalPairPruner& pruner,
      size_t /*unused*/ = kDefaultIndexCacheBudgetBytes);

  /// The catalog mutation epoch this snapshot reflects.
  uint64_t epoch() const { return epoch_; }

  /// Ranked shortlist at this epoch (bit-identical to what a batch
  /// ShortlistPairs over the same tables produces).
  const PairPrunerResult& shortlist() const { return shortlist_; }

  size_t num_tables() const { return num_tables_; }
  size_t num_columns() const { return num_columns_; }
  /// Resident/spilled cell bytes measured at build time (metadata for
  /// stats; not live).
  size_t resident_bytes() const { return resident_bytes_; }
  size_t spilled_bytes() const { return spilled_bytes_; }

  /// The pruner's LSH index size at build time: occupied buckets and
  /// indexed columns (metadata for stats; not live).
  size_t lsh_buckets() const { return lsh_buckets_; }
  size_t lsh_entries() const { return lsh_entries_; }

  /// True when `t` addresses a table this snapshot holds.
  bool IsLive(uint32_t t) const {
    return t < slots_.size() && slots_[t] != nullptr;
  }

  /// Resolves a "table.column" spec against this snapshot's names. Table
  /// names may themselves contain dots (CSV stems like "data.v2"), so every
  /// split position is tried rightmost-first and the first one naming a
  /// live table wins; the column is then required to exist in it.
  Result<ColumnRef> ResolveColumn(std::string_view spec) const;

  /// Resolves a live table by name.
  Result<uint32_t> ResolveTable(std::string_view name) const;

  /// "table.column" display form of a ref.
  std::string SpecOf(ColumnRef ref) const;

  // CorpusColumnSource — the per-pair engine's read surface.
  Result<const Column*> ResidentColumn(ColumnRef ref) const override;
  const std::string& table_name(uint32_t t) const override;
  const std::string& column_name(ColumnRef ref) const override;
  /// Fingerprint captured at Build time (0 for dead ids), so a caller can
  /// key per-column results without touching the moved-on live catalog.
  uint64_t table_fingerprint(uint32_t t) const override {
    return t < fingerprints_.size() ? fingerprints_[t] : 0;
  }

 private:
  CorpusSnapshot() = default;

  uint64_t epoch_ = 0;
  /// Indexed by catalog table id; null for ids dead at this epoch. Shared
  /// ownership keeps the bytes alive past later catalog mutations.
  std::vector<std::shared_ptr<const Table>> slots_;
  /// Content fingerprints parallel to slots_ (0 for dead ids).
  std::vector<uint64_t> fingerprints_;
  std::unordered_map<std::string, uint32_t> by_name_;
  PairPrunerResult shortlist_;
  size_t num_tables_ = 0;
  size_t num_columns_ = 0;
  size_t resident_bytes_ = 0;
  size_t spilled_bytes_ = 0;
  size_t lsh_buckets_ = 0;
  size_t lsh_entries_ = 0;
};

}  // namespace tj::serve

#endif  // TJ_SERVE_SNAPSHOT_H_
