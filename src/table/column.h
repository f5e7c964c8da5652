// Column: a named, string-typed column backed by one contiguous char arena.
//
// Storage model: all cell bytes live in a single contiguous byte buffer (the
// arena); each cell is an (offset, length) slot into it. `Get()` therefore
// returns a view into one mappable buffer instead of a heap string per cell
// — the zero-copy substrate the discovery pipeline (ExamplePair views), the
// n-gram index build, and the corpus sketches read from directly.
//
// The arena itself is a pluggable ArenaBackend. The default is a heap
// buffer (std::vector<char>); columns created with a StorageOptions whose
// spill_dir is set use a file-backed, memory-mapped arena instead
// (table/spill_arena.h), so a column's cell bytes can exceed RAM: resident
// pages can be dropped (`ReleasePages`) or the whole mapping torn down and
// restored (`Evict`/`EnsureResident`) without losing data. Because `Get()`
// reads one contiguous buffer either way, everything downstream works
// unchanged on both backends.
//
// Lifetime / stability rules:
//  * Mutations (`Append`, `Set`) may grow the arena and thus reallocate it:
//    every view previously returned by `Get()` is invalidated, exactly like
//    iterators of a growing std::vector.
//  * Once a column stops mutating, views are stable for the column's
//    remaining lifetime. `Freeze()` makes that contract explicit: a frozen
//    column TJ_CHECK-fails on `Append`/`Set`, so views into it can be handed
//    out (e.g. as ExamplePairs) without defensive copies.
//  * MOVING a column (or a Table holding it) keeps all views valid — the
//    arena buffer (heap allocation or mmap mapping) migrates wholesale, and
//    the frozen flag moves with it.
//  * COPYING a column deep-copies — and COMPACTS — the arena: only live
//    cell bytes transfer, so dead space orphaned by growing `Set`s is
//    reclaimed. The copy keeps the original's backend kind (a spilled
//    column's copy spills to a fresh file in the same directory) but starts
//    *unfrozen*: it has no outstanding views, so the holder may mutate it
//    freely.
//  * Self-aliasing mutation is allowed: `Set`/`Append` may be fed a view
//    into this column's own arena — e.g. col.Append(col.Get(j)) — and
//    handle the reallocation safely.
//  * A column holds its cell bytes once, as given. Readers that match
//    without regard to case (the n-gram index build, the row matcher's
//    probe) lower each row into their own scratch as they read it.
//  * `Evict()` (frozen, spilled columns only) syncs the arena to its spill
//    file and unmaps it: views are invalidated like a mutation and `Get()`
//    TJ_CHECK-fails until `EnsureResident()` re-maps the file (at a new
//    address — old views stay dead). Evict must not race with readers;
//    EnsureResident is safe to race with itself (first caller re-maps).
//  * `ReleasePages()` writes back and drops resident pages of a spilled
//    arena WITHOUT unmapping: all views stay valid and dropped pages fault
//    back in transparently. Safe under concurrent readers — this is the
//    lever that bounds RSS while a frozen corpus is being scanned.
//  * Destroying the column invalidates its views and removes its spill
//    file.

#ifndef TJ_TABLE_COLUMN_H_
#define TJ_TABLE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace tj {

/// Selects and parameterizes the byte store behind new columns. Threaded
/// through the CSV reader, datagen, and TableCatalog; the default (empty
/// spill_dir) keeps every arena on the heap.
struct StorageOptions {
  /// When non-empty, new column arenas live in memory-mapped files created
  /// inside this directory (one per column, removed when the column dies).
  /// The directory is created on demand.
  std::string spill_dir;

  /// Soft cap on resident spilled cell bytes, in bytes (0 = unbounded).
  /// Enforced by TableCatalog: when the resident total exceeds the budget,
  /// cold frozen tables are evicted to their spill files and transparently
  /// re-mapped on access. Meaningless without a spill_dir.
  size_t memory_budget_bytes = 0;

  bool spill_enabled() const { return !spill_dir.empty(); }
};

/// Validates a StorageOptions combination — InvalidArgument for settings
/// that would silently do nothing (a memory budget without a spill
/// directory) so a serving daemon can reject them as a response instead of
/// running unbudgeted. Does not touch the filesystem; spill-directory
/// creation stays lazy (and fallible) at first use. Defaults always
/// validate.
Status ValidateOptions(const StorageOptions& options);

/// The byte store behind a Column's arena: one contiguous, grow-only
/// buffer. Implementations: the heap arena (column.cc, default) and the
/// mmap-backed spill arena (table/spill_arena.h).
///
/// Growth (`Resize`/`Reserve`) may move the buffer and must not race with
/// anything. `ReleasePages`/`EnsureResident` are safe under concurrent
/// readers; `Evict` is not (see the Column rules above).
class ArenaBackend {
 public:
  virtual ~ArenaBackend() = default;

  /// Base of the buffer; nullptr while empty or evicted.
  virtual char* data() = 0;
  /// Logical bytes in use.
  virtual size_t size() const = 0;
  /// Bytes allocated (heap) or file bytes provisioned (spill).
  virtual size_t capacity() const = 0;
  /// Grows the logical size to `new_size` (grow-only; amortized geometric).
  /// A spill backend can fail (disk full, torn-down directory) — it returns
  /// the error without losing the bytes it already holds; Column reacts by
  /// migrating the column onto a heap arena. The heap backend only fails by
  /// throwing bad_alloc (genuine OOM stays fatal, like everywhere else).
  virtual Status Resize(size_t new_size) = 0;
  /// Provisions capacity for `bytes` without changing size().
  virtual Status Reserve(size_t bytes) = 0;

  /// Memory held by this backend that counts against RAM (0 for an evicted
  /// spill arena; an upper bound — released-but-mapped pages still count).
  virtual size_t FootprintBytes() const = 0;
  /// Bytes held in a spill file (0 for the heap backend).
  virtual size_t SpilledBytes() const { return 0; }
  virtual bool spilled() const { return false; }
  virtual bool resident() const { return true; }
  /// Directory this backend spills into (empty for the heap backend).
  virtual std::string SpillDir() const { return {}; }

  /// Spill backends: sync + unmap / re-map / drop resident pages. No-ops
  /// on the heap backend. Evict fails (arena stays resident) when the sync
  /// fails — possibly-unsynced pages are never dropped; EnsureResident
  /// fails (arena stays evicted) when the re-map fails.
  virtual Status Evict() { return Status::OK(); }
  virtual Status EnsureResident() { return Status::OK(); }
  /// Copies the logical bytes [0, size()) into `dst`. Works even when the
  /// mapping of a spill backend is gone (reads the file directly) — the
  /// rescue path of Column's heap fallback.
  virtual Status ReadBytes(char* dst) = 0;
  virtual void ReleasePages() {}
  /// Range variant (byte offsets into the arena, page-granular): streamed
  /// scans release just the window they finished instead of sweeping the
  /// whole mapping every block.
  virtual void ReleasePages(size_t /*begin*/, size_t /*end*/) {}

  /// A fresh, empty backend of the same kind (a spill arena clones to a new
  /// file in its directory, falling back to the heap if the file cannot be
  /// created). Used by copies.
  virtual std::unique_ptr<ArenaBackend> CloneEmpty() const = 0;
};

/// A named, string-typed column (pluggable arena storage; see file comment).
class Column {
 public:
  Column() = default;
  explicit Column(std::string name) : name_(std::move(name)) {}
  Column(std::string name, const std::vector<std::string>& values);

  /// Spill-aware factory: the arena (created lazily on first append)
  /// follows `storage` — a file-backed mmap arena when spill_dir is set.
  /// (A constructor overload would be ambiguous with the values list.)
  static Column WithStorage(std::string name, const StorageOptions& storage) {
    Column column(std::move(name));
    column.spill_dir_ = storage.spill_dir;
    return column;
  }

  Column(const Column& other);
  Column& operator=(const Column& other);
  Column(Column&& other) noexcept;
  Column& operator=(Column&& other) noexcept;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  /// Bounds-checked cell access. The view points into the arena; see the
  /// stability rules in the file comment. Reading a nonzero-length cell of
  /// an evicted column TJ_CHECK-fails (EnsureResident first); zero-length
  /// cells read as empty regardless of residency.
  std::string_view Get(size_t row) const {
    TJ_CHECK(row < slots_.size());
    const Slot& s = slots_[row];
    if (s.length == 0) return std::string_view();
    const char* base = base_.load(std::memory_order_relaxed);
    TJ_CHECK(base != nullptr);  // evicted: re-map before reading
    return std::string_view(base + s.offset, s.length);
  }

  /// Appends one cell (copies the bytes into the arena). TJ_CHECK-fails on a
  /// frozen column.
  void Append(std::string_view value);

  /// Reserves slot capacity for `n` cells.
  void Reserve(size_t n) { slots_.reserve(n); }
  /// Reserves arena capacity for `bytes` cell bytes (one allocation — or
  /// one spill-file grow — up front instead of amortized doubling while
  /// appending).
  void ReserveChars(size_t bytes);

  /// Bounds-checked cell overwrite. Shrinking or same-length values are
  /// rewritten in place; growing values are appended at the arena's end —
  /// the old bytes become dead space (reported by ArenaBytes, absent from
  /// CellBytes) that the next copy compacts away. TJ_CHECK-fails on a
  /// frozen column.
  void Set(size_t row, std::string_view value);

  /// Marks the column immutable: Append/Set TJ_CHECK-fail from here on, so
  /// views returned by Get() stay valid for the column's lifetime (moves
  /// included). Freezing twice is a no-op. There is no thaw — copy the
  /// column to get a mutable (unfrozen) one.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  // -------------------------------------------------------------------
  // Out-of-core controls (see the lifetime rules in the file comment).
  // -------------------------------------------------------------------

  /// True when the arena's bytes are file-backed (mmap spill arena).
  bool spilled() const {
    return arena_ != nullptr ? arena_->spilled() : !spill_dir_.empty();
  }
  /// False while a spilled column is evicted (Get would TJ_CHECK-fail).
  bool resident() const {
    return arena_ == nullptr || arena_->resident();
  }
  /// Frozen spilled columns only: sync to the spill file and unmap.
  /// Invalidates views; no-op on heap columns. Must not race with readers.
  /// When the sync fails the column STAYS resident (possibly-unsynced pages
  /// are never dropped) and the error is returned — budget enforcement
  /// skips such tables.
  Status Evict() const;
  /// Re-maps an evicted arena (no-op when resident). Views handed out
  /// before the eviction stay dead — re-read through Get(). When the
  /// re-map fails, the bytes are rescued onto a heap arena instead (read
  /// straight from the spill file; logged + counted in storage_events.h) —
  /// only if that read fails too does this return the error and leave the
  /// column evicted. Safe to race with itself.
  Status EnsureResident() const;
  /// Writes back and drops resident pages of a spilled arena without
  /// unmapping: views stay valid, dropped pages fault back on access. Safe
  /// under concurrent readers; no-op on heap columns.
  void ReleasePages() const;
  /// Range variant over arena byte offsets [begin, end) — the window lever
  /// of the streamed scans (ForEachCellStreamed). Arena offsets follow
  /// append order, so on compacted columns (ingested, adopted, copied) the
  /// scanned prefix is exactly [0, processed bytes).
  void ReleaseArenaRange(size_t begin, size_t end) const;

  /// Rebuilds the column's byte store on the backend `storage` selects,
  /// compacting like a copy. No-op when the backend kind already matches.
  /// Like a mutation, this invalidates outstanding views — but unlike one
  /// it is allowed on a frozen column (the frozen flag is preserved);
  /// callers re-acquire views afterwards.
  void AdoptStorage(const StorageOptions& storage);

  /// Mean cell length in characters; 0 for an empty column. The row matcher
  /// uses this to pick the more descriptive column as the source (§4.2.1).
  double AverageLength() const;

  /// Shortest and longest cell length in bytes; {0, 0} for an empty column.
  /// Like AverageLength, it reads only the slot table, never cell bytes.
  std::pair<uint32_t, uint32_t> LengthRange() const;

  /// Live cell bytes (sum of slot lengths) — the logical payload size.
  size_t CellBytes() const;
  /// Arena buffer bytes actually held, dead space from Set growth included.
  size_t ArenaBytes() const { return arena_ != nullptr ? arena_->size() : 0; }
  /// RAM footprint of the storage (arena + slot capacity); an evicted spill
  /// arena contributes 0.
  size_t FootprintBytes() const {
    return (arena_ != nullptr ? arena_->FootprintBytes() : 0) +
           slots_.capacity() * sizeof(Slot);
  }
  /// Arena bytes currently addressable in RAM (0 while evicted). The
  /// catalog's budget accounting reads this.
  size_t ResidentBytes() const {
    return arena_ != nullptr && arena_->resident() ? arena_->size() : 0;
  }
  /// Bytes held in the spill file; 0 for heap columns.
  size_t SpilledBytes() const {
    return arena_ != nullptr ? arena_->SpilledBytes() : 0;
  }

 private:
  struct Slot {
    uint64_t offset = 0;
    uint32_t length = 0;
  };

  static constexpr size_t kNoSelfAlias = ~size_t{0};

  /// Materializes the backend (heap or spill per spill_dir_) on first use.
  ArenaBackend* EnsureArena();
  /// Refreshes the cached arena base pointer after any arena operation.
  void SyncBase() const {
    base_.store(arena_ != nullptr ? arena_->data() : nullptr,
                std::memory_order_relaxed);
  }
  /// Appends value's bytes at the arena's end; safe when `value` views this
  /// column's own arena (offset captured before the reallocation).
  void AppendToArena(std::string_view value);
  /// Compacting deep copy (live cell bytes only); leaves *this unfrozen.
  void CopyFrom(const Column& other);
  /// Degradation lever: copies the arena's bytes (offsets preserved) onto a
  /// fresh heap arena and swaps it in, retiring the failed spill backend.
  /// Returns the read error (column unchanged) when even the byte rescue
  /// fails. Logged + counted; callers hold fallback_mutex_ or have
  /// exclusive (mutation) access.
  Status MigrateToHeap(const char* why, const Status& cause) const;

  std::string name_;
  /// Spill directory new arenas are created in (empty = heap).
  std::string spill_dir_;
  /// Byte store; nullptr until the first byte lands (empty arena).
  /// Mutable: the heap fallback may swap backends under a const read path
  /// (EnsureResident) — serialized by fallback_mutex_.
  mutable std::unique_ptr<ArenaBackend> arena_;
  /// A spill backend replaced by the heap fallback is retired here instead
  /// of being destroyed: concurrent readers of resident()/spilled() may
  /// still be probing the old object. Freed when the column dies.
  mutable std::unique_ptr<ArenaBackend> retired_arena_;
  /// Serializes racing EnsureResident fallbacks (the only concurrent path
  /// that may swap arena_). Never moved — moves/copies get a fresh mutex.
  mutable std::mutex fallback_mutex_;
  /// Cached arena base pointer — keeps Get() free of virtual calls.
  /// Relaxed atomics: the only cross-thread transition is evicted->resident
  /// (EnsureResident), where racing callers store the same value.
  mutable std::atomic<const char*> base_{nullptr};
  std::vector<Slot> slots_;
  bool frozen_ = false;
};

/// Creates a backend per `spill_dir`: a spill arena inside the directory
/// when non-empty (falling back to the heap with a warning if the spill
/// file cannot be created), the heap arena otherwise.
std::unique_ptr<ArenaBackend> MakeArenaBackend(const std::string& spill_dir);

/// Block size of the streamed full-column scans (fingerprint, sketching):
/// on spilled columns the pages behind each processed block are written
/// back and dropped before the next block is touched.
inline constexpr size_t kSpillStreamBlockBytes = size_t{1} << 20;

/// Calls fn(cell) for every row in order. On a spilled column, releases
/// the pages behind each processed ~kSpillStreamBlockBytes window — just
/// that window, so a full scan does O(N) release work total and never
/// pins more than about one block resident (outstanding views stay valid
/// — see ReleasePages). The window tracks cumulative cell bytes, which
/// equals the arena offset on compacted columns; on a Set-grown column
/// the ranges may miss (never corrupt — releasing is always safe).
template <typename Fn>
void ForEachCellStreamed(const Column& column, Fn&& fn) {
  const bool stream_release = column.spilled();
  size_t processed = 0;
  size_t released_upto = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    const std::string_view cell = column.Get(row);
    fn(cell);
    if (stream_release) {
      processed += cell.size();
      if (processed - released_upto >= kSpillStreamBlockBytes) {
        column.ReleaseArenaRange(released_upto, processed);
        released_upto = processed;
      }
    }
  }
}

}  // namespace tj

#endif  // TJ_TABLE_COLUMN_H_
