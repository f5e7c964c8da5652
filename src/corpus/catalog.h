// TableCatalog: the registry a corpus-scale discovery run works from. Holds
// the tables themselves (registered in-memory or loaded from a directory of
// CSV files) plus one cached ColumnSignature per column, computed on demand
// — optionally in parallel on a shared ThreadPool — and serializable, so a
// repository's sketches are built once and reloaded across runs (the same
// persist-and-transfer idea core/serialization applies to learned rules).
//
// The catalog is a *live* structure: tables can be added, removed, and
// updated after the initial load. Table ids are stable handles — removal
// tombstones the slot instead of shifting later ids, so ColumnRefs held by
// an IncrementalPairPruner (pair_pruner.h) stay valid across maintenance
// operations and only the touched table's signatures are ever recomputed.

#ifndef TJ_CORPUS_CATALOG_H_
#define TJ_CORPUS_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "corpus/signature.h"
#include "table/table.h"

namespace tj {

class ThreadPool;

/// Addresses one column of one catalog table.
struct ColumnRef {
  uint32_t table = 0;
  uint32_t column = 0;

  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
  /// Catalog order: table-major, then column.
  bool operator<(const ColumnRef& other) const {
    return table != other.table ? table < other.table
                                : column < other.column;
  }
};

/// Order-sensitive content hash of a table: column count, column names, and
/// every cell, streamed in one pass (spilled columns release their pages
/// block-wise, so fingerprinting an out-of-core table stays within one
/// block of resident cells). Keys the v2 signature cache, so a reloaded
/// sketch is only trusted when the table's bytes are unchanged since it was
/// written.
uint64_t TableFingerprint(const Table& table);

/// The minimal read surface the per-pair engine needs to evaluate a
/// shortlisted candidate: resolve a ColumnRef to resident cell bytes, plus
/// the table/column names reporting wants. Implemented by TableCatalog (the
/// live corpus) and by serve::CorpusSnapshot (an immutable epoch view), so
/// discovery results computed against a snapshot are produced by exactly
/// the code path a batch run uses — the byte-identity the serving layer's
/// consistency contract rests on.
class CorpusColumnSource {
 public:
  virtual ~CorpusColumnSource() = default;

  /// Status-surfacing column access: NotFound for an unknown ref, the
  /// residency error when the column's bytes cannot be made readable, the
  /// (resident) column otherwise.
  virtual Result<const Column*> ResidentColumn(ColumnRef ref) const = 0;
  /// Metadata without touching residency (must not fault evicted bytes in).
  virtual const std::string& table_name(uint32_t t) const = 0;
  virtual const std::string& column_name(ColumnRef ref) const = 0;
  /// Content fingerprint of a live table (TableFingerprint) — the
  /// index-cache key component, so per-pair evaluation can memoize
  /// inverted indexes across pairs and queries. 0 = unknown/uncacheable,
  /// the safe default for sources that do not track content hashes (the
  /// cache is simply bypassed for their columns).
  virtual uint64_t table_fingerprint(uint32_t /*t*/) const { return 0; }
};

class TableCatalog : public CorpusColumnSource {
 public:
  /// `storage` selects the byte store for registered tables: with a
  /// spill_dir every added table's arenas are rebuilt onto mmap-backed
  /// spill files, and a non-zero memory_budget_bytes makes the catalog
  /// evict cold frozen tables (least recently registered/touched first)
  /// whenever the resident cell bytes exceed the budget. Evicted tables
  /// are transparently re-mapped by table()/column() on access.
  explicit TableCatalog(StorageOptions storage = StorageOptions())
      : storage_(std::move(storage)) {}

  /// Movable (factory-style construction in tests and tools); a move
  /// hands the resident-bytes count over and leaves the source an empty
  /// catalog. Moving is only safe while no reader races the source.
  TableCatalog(TableCatalog&&) noexcept = default;
  TableCatalog& operator=(TableCatalog&&) noexcept = default;

  /// Registers a table and returns its stable id. Fails on an empty or
  /// duplicate table name (names key the serialized signature cache, so
  /// live tables must be unique). Ids are never reused: re-adding a name
  /// after RemoveTable allocates a fresh slot, so relative id order always
  /// matches registration order — the property incremental maintenance
  /// relies on for shortlists identical to a from-scratch build.
  Result<uint32_t> AddTable(Table table);

  /// Tombstones the named table: its id stays allocated (table()/column()
  /// on it TJ_CHECK-fail), its signatures are dropped, and its name becomes
  /// reusable. O(1) — no other table is touched.
  Status RemoveTable(std::string_view name);

  /// Replaces the same-named live table's contents in place (same id) and
  /// invalidates its cached signatures and fingerprint. Only the touched
  /// table is ever re-sketched by the next ComputeSignatures. Returns the
  /// (unchanged) table id.
  Result<uint32_t> UpdateTable(Table table);

  /// Outcome of an AddCsvDirectory scan: how many files registered as
  /// tables vs. were warn-skipped (unreadable, unparseable, name clash).
  struct CsvDirectoryReport {
    size_t added = 0;
    size_t skipped = 0;
  };

  /// Registers every `*.csv` file of a directory (non-recursive), in
  /// filename order, as a table named after the file stem. Unreadable or
  /// unparseable files are skipped with a warning on stderr instead of
  /// aborting the scan — the returned report carries the skip count so
  /// callers can surface partial loads instead of silently serving less
  /// corpus than the user pointed at. Table bytes land on this catalog's
  /// StorageOptions backends (block-streamed straight into spill files
  /// when configured).
  Result<CsvDirectoryReport> AddCsvDirectory(const std::string& dir);

  /// Live (non-removed) table count.
  size_t num_tables() const { return num_live_; }
  /// Allocated id slots, including tombstones; valid ids are [0, num_slots).
  size_t num_slots() const { return tables_.size(); }
  /// False for ids tombstoned by RemoveTable.
  bool IsLive(uint32_t t) const {
    return t < tables_.size() && tables_[t].live;
  }
  /// Requires IsLive(t) (TJ_CHECK). Transparently re-maps a table the
  /// budget enforcement evicted (safe under concurrent readers: racing
  /// re-maps are serialized per column). The re-map is best-effort: a
  /// failure is absorbed by the column's heap fallback, and only the
  /// pathological double-failure leaves cells unreadable — fallible
  /// (user-reachable) paths should go through ResidentTable/ResidentColumn
  /// to see that error as a Status.
  const Table& table(uint32_t t) const;
  /// Status-surfacing access for user-reachable paths: NotFound for a dead
  /// or out-of-range id, the residency error when the table's bytes cannot
  /// be made readable, the table otherwise.
  Result<const Table*> ResidentTable(uint32_t t) const;
  /// Shared ownership of a live table — the snapshot refcount seam. A
  /// holder keeps the table (and its arena bytes) alive across a later
  /// RemoveTable/UpdateTable of the same name, so an immutable snapshot
  /// (serve::CorpusSnapshot) can keep answering queries against the epoch
  /// it was built from while the catalog moves on. Does not touch
  /// residency. Requires IsLive(t) (TJ_CHECK).
  std::shared_ptr<const Table> SharedTable(uint32_t t) const;
  /// Table metadata without touching residency: printing a name must not
  /// fault an evicted table back in. Requires IsLive(t) (TJ_CHECK).
  const std::string& table_name(uint32_t t) const override;
  /// The table's column count, also without touching residency (the
  /// pruner sizes a table's probe from it). Requires IsLive(t) (TJ_CHECK).
  size_t table_num_columns(uint32_t t) const;
  Result<uint32_t> TableIndex(std::string_view name) const;

  /// Monotonically increasing mutation counter: bumped by every successful
  /// AddTable/RemoveTable/UpdateTable (0 for a freshly constructed
  /// catalog). The serving layer stamps each CorpusSnapshot with the value
  /// at build time, so "which version answered this query" is a single
  /// integer comparison.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  /// Content fingerprint of a live table (computed at Add/Update time).
  uint64_t fingerprint(uint32_t t) const;
  /// CorpusColumnSource: same value, index-cache keying surface.
  uint64_t table_fingerprint(uint32_t t) const override {
    return fingerprint(t);
  }

  /// Total column count across live tables.
  size_t num_columns() const;
  /// Every live column in catalog order (table-major).
  std::vector<ColumnRef> AllColumns() const;
  /// Best-effort re-map like table() — see there for the fallible variant.
  const Column& column(ColumnRef ref) const;
  /// Status-surfacing column access (see ResidentTable).
  Result<const Column*> ResidentColumn(ColumnRef ref) const override;
  /// Column metadata without touching residency (see table_name).
  const std::string& column_name(ColumnRef ref) const override;

  const StorageOptions& storage_options() const { return storage_; }

  // -------------------------------------------------------------------
  // Out-of-core accounting and eviction (spilled catalogs; see ctor).
  // -------------------------------------------------------------------

  /// Cell bytes of live tables currently addressable in RAM (evicted
  /// tables contribute 0). Exact: scans every live table.
  size_t ResidentCellBytes() const;
  /// The running resident-bytes counter budget enforcement reads instead
  /// of rescanning every table per AddTable (the O(N^2) ingest debt from
  /// the spill work). Maintained incrementally at catalog-mediated
  /// residency transitions (add/update/remove, eviction, transparent
  /// re-map on access) — the only places a catalog column's resident bytes
  /// change. The exact scan at every ComputeSignatures resyncs away the
  /// residual upward drift of racing double-counted re-maps. Equals
  /// ResidentCellBytes() whenever the catalog is quiesced. Always 0 when
  /// no budget is active.
  size_t CachedResidentBytes() const {
    return resident_bytes_.bytes.load(std::memory_order_relaxed);
  }
  /// Bytes held in spill files across live tables.
  size_t SpilledBytes() const;
  /// Re-maps an evicted table and marks it recently used (serial contexts;
  /// plain table() access re-maps without touching the LRU clock). Returns
  /// the residency error when the table's bytes cannot be made readable.
  Status EnsureTableResident(uint32_t t) const;
  /// Evicts least-recently-touched live frozen tables until the resident
  /// cell bytes fit memory_budget_bytes. No-op without a spill_dir or
  /// budget. Runs automatically after AddTable/UpdateTable and
  /// ComputeSignatures; callers may also invoke it at their own sync
  /// points. Must not race with readers of the evicted tables (re-map on
  /// access makes later reads safe, but views held across the call die).
  /// A table whose sync fails is skipped — it stays resident (possibly
  /// unsynced pages are never dropped; logged + counted) and colder
  /// candidates are tried instead. With a `pool`, the candidate scan over
  /// the table slots fans out in chunk-ordered shards (the eviction order
  /// and outcome are identical to the serial scan); the eviction loop
  /// itself stays serial — Evict must not race with readers.
  void EnforceMemoryBudget(ThreadPool* pool = nullptr) const;

  /// Ensures every live column's signature is cached. Columns still missing
  /// one are computed — in parallel over columns when `pool` is given (each
  /// column's signature depends only on that column, so results are
  /// identical for every pool size). Idempotent; previously computed or
  /// loaded signatures are never recomputed, so after an AddTable or
  /// UpdateTable only the touched table is sketched.
  void ComputeSignatures(ThreadPool* pool = nullptr);

  bool HasSignature(ColumnRef ref) const;
  /// Requires HasSignature(ref) (TJ_CHECK).
  const ColumnSignature& signature(ColumnRef ref) const;

  /// Serializes every cached signature, keyed by table/column name, in a
  /// line-based text format ("# tj-signatures v2"). Each table line carries
  /// the table's content fingerprint so a reloading catalog can detect
  /// stale entries. Tables and columns without a cached signature are
  /// omitted.
  std::string SerializeSignatures() const;

  /// Parses a SerializeSignatures dump and installs the signatures on the
  /// matching columns of this catalog.
  ///
  /// Dumps self-invalidate: a table block whose name is unknown here or
  /// whose recorded fingerprint disagrees with the current table content is
  /// skipped (still syntax-checked), so stale sketches are silently dropped
  /// and recomputed by the next ComputeSignatures instead of being served.
  ///
  /// Anything else fails closed and installs nothing, forcing a rescan: a
  /// header other than "# tj-signatures v2" (the fingerprint-less v1 format
  /// included), an options line other than the one sketch geometry
  /// (signature.h), an unknown column, row-count drift, malformed or
  /// truncated input, and numbers no sketch holds — each integer is read
  /// at its field's width, and meanlen must be finite and not negative —
  /// or fields that contradict each other: charset bits above
  /// kCharsetOther, lengths outside minlen <= meanlen <= maxlen, or minhash
  /// slots that disagree with distinct= (an empty slot when distinct > 0,
  /// a non-empty one when it is 0).
  Status LoadSignatures(std::string_view text);

  /// Crash-safe save: serializes into `<path>.tmp`, fsyncs, then renames
  /// into place — a crash or I/O error mid-save never corrupts an existing
  /// cache file (the rename is atomic; on failure the temp file is
  /// removed and `path` is untouched).
  Status SaveSignaturesToFile(const std::string& path) const;
  Status LoadSignaturesFromFile(const std::string& path);

 private:
  struct TableEntry {
    /// Shared so snapshots can pin a table across RemoveTable/UpdateTable
    /// (see SharedTable); null once the entry is tombstoned.
    std::shared_ptr<Table> table;
    std::vector<std::optional<ColumnSignature>> signatures;
    uint64_t fingerprint = 0;
    bool live = true;
    /// LRU stamp for budget eviction; updated at serial touch points only
    /// (registration, update, EnsureTableResident).
    mutable uint64_t last_touch = 0;
  };

  /// Applies this catalog's storage to a freshly registered table and
  /// freezes it; shared by AddTable/UpdateTable.
  void AdoptAndFreeze(Table* table) const;

  /// Whether the resident-bytes counter is live (spill + budget).
  bool budget_active() const {
    return storage_.spill_enabled() && storage_.memory_budget_bytes != 0;
  }
  /// Adds a (possibly negative) delta to the running counter, clamped at 0.
  void BumpResidentBytes(size_t before, size_t after) const;
  /// Resets the counter to the exact scan (serial contexts only).
  void ResyncResidentBytes() const;

  StorageOptions storage_;
  std::vector<TableEntry> tables_;
  size_t num_live_ = 0;
  uint64_t mutation_epoch_ = 0;
  /// Monotonic touch clock feeding TableEntry::last_touch.
  mutable uint64_t touch_clock_ = 0;
  /// Running resident-bytes estimate (see CachedResidentBytes). Atomic:
  /// concurrent readers re-mapping evicted tables bump it. A move takes
  /// the count and zeroes the source, so the catalog's moves are defaulted.
  struct ResidentCounter {
    std::atomic<size_t> bytes{0};
    ResidentCounter() = default;
    ResidentCounter(ResidentCounter&& other) noexcept
        : bytes(other.bytes.exchange(0, std::memory_order_relaxed)) {}
    ResidentCounter& operator=(ResidentCounter&& other) noexcept {
      bytes.store(other.bytes.exchange(0, std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };
  mutable ResidentCounter resident_bytes_;
  std::unordered_map<std::string, uint32_t, StringHash, StringEq>
      table_index_;
};

}  // namespace tj

#endif  // TJ_CORPUS_CATALOG_H_
