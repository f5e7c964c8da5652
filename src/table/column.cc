#include "table/column.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "table/spill_arena.h"
#include "table/storage_events.h"

namespace tj {
namespace {

/// The default byte store: one contiguous heap buffer with vector growth.
class HeapArena final : public ArenaBackend {
 public:
  char* data() override { return bytes_.data(); }
  size_t size() const override { return bytes_.size(); }
  size_t capacity() const override { return bytes_.capacity(); }
  Status Resize(size_t new_size) override {
    bytes_.resize(new_size);
    return Status::OK();
  }
  Status Reserve(size_t bytes) override {
    bytes_.reserve(bytes);
    return Status::OK();
  }
  Status ReadBytes(char* dst) override {
    if (!bytes_.empty()) std::memcpy(dst, bytes_.data(), bytes_.size());
    return Status::OK();
  }
  size_t FootprintBytes() const override { return bytes_.capacity(); }
  std::unique_ptr<ArenaBackend> CloneEmpty() const override {
    return std::make_unique<HeapArena>();
  }

 private:
  std::vector<char> bytes_;
};

}  // namespace

std::unique_ptr<ArenaBackend> MakeArenaBackend(const std::string& spill_dir) {
  if (spill_dir.empty()) return std::make_unique<HeapArena>();
  auto spill = SpillArena::Create(spill_dir);
  if (spill.ok()) return std::move(*spill);
  // Spill failure degrades to the heap (results are identical on both
  // backends; only the memory ceiling differs), so a bad spill directory
  // never aborts an ingest mid-flight.
  std::fprintf(stderr, "warning: %s; using heap arena\n",
               spill.status().ToString().c_str());
  RecordHeapFallbackColumn();
  RecordSpillErrorRecovered();
  return std::make_unique<HeapArena>();
}

ArenaBackend* Column::EnsureArena() {
  if (arena_ == nullptr) {
    arena_ = MakeArenaBackend(spill_dir_);
    SyncBase();
  }
  return arena_.get();
}

Column::Column(std::string name, const std::vector<std::string>& values)
    : name_(std::move(name)) {
  size_t total = 0;
  for (const auto& v : values) total += v.size();
  ReserveChars(total);
  slots_.reserve(values.size());
  for (const auto& v : values) Append(v);
}

Column::Column(const Column& other) { CopyFrom(other); }

Column& Column::operator=(const Column& other) {
  if (this == &other) return *this;
  arena_.reset();
  retired_arena_.reset();
  SyncBase();
  slots_.clear();
  CopyFrom(other);
  return *this;
}

void Column::CopyFrom(const Column& other) {
  // Copies compact: only live cell bytes are transferred, so dead space
  // orphaned by Set growth is reclaimed here (the copy-edit-UpdateTable
  // maintenance cycle stays O(live bytes) no matter how often it runs).
  // Copies keep the backend kind but start unfrozen: no outstanding views,
  // mutable.
  const Status resident = other.EnsureResident();
  // EnsureResident already falls back to the heap on a re-map failure; an
  // error here means the bytes are unreachable by mapping AND by reading
  // the file — there is nothing to copy from.
  TJ_CHECK(resident.ok());
  name_ = other.name_;
  spill_dir_ = other.spill_dir_;
  const size_t live = other.CellBytes();
  slots_.reserve(other.slots_.size());
  if (live > 0) {
    arena_ = other.arena_->CloneEmpty();
    const Status sized = arena_->Resize(live);
    if (!sized.ok()) {
      std::fprintf(stderr,
                   "warning: column '%s': cannot size spill copy (%s); using "
                   "heap arena\n",
                   name_.c_str(), sized.ToString().c_str());
      RecordHeapFallbackColumn();
      RecordSpillErrorRecovered();
      arena_ = std::make_unique<HeapArena>();
      (void)arena_->Resize(live);
    }
    char* dst = arena_->data();
    const char* src = other.arena_->data();
    size_t offset = 0;
    for (const Slot& s : other.slots_) {
      std::memcpy(dst + offset, src + s.offset, s.length);
      slots_.push_back(Slot{offset, s.length});
      offset += s.length;
    }
  } else {
    for (const Slot& s : other.slots_) slots_.push_back(Slot{0, s.length});
  }
  SyncBase();
  frozen_ = false;
}

Column::Column(Column&& other) noexcept
    : name_(std::move(other.name_)),
      spill_dir_(std::move(other.spill_dir_)),
      arena_(std::move(other.arena_)),
      retired_arena_(std::move(other.retired_arena_)),
      base_(other.base_.exchange(nullptr, std::memory_order_relaxed)),
      slots_(std::move(other.slots_)),
      frozen_(other.frozen_) {
  other.frozen_ = false;
}

Column& Column::operator=(Column&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  spill_dir_ = std::move(other.spill_dir_);
  arena_ = std::move(other.arena_);
  retired_arena_ = std::move(other.retired_arena_);
  base_.store(other.base_.exchange(nullptr, std::memory_order_relaxed),
              std::memory_order_relaxed);
  slots_ = std::move(other.slots_);
  frozen_ = other.frozen_;
  other.frozen_ = false;
  return *this;
}

// True when `value`'s bytes live inside [base, base + size).
static bool Aliases(std::string_view value, const char* base, size_t size) {
  if (value.empty() || base == nullptr) return false;
  const auto v = reinterpret_cast<uintptr_t>(value.data());
  const auto b = reinterpret_cast<uintptr_t>(base);
  return v >= b && v < b + size;
}

Status Column::MigrateToHeap(const char* why, const Status& cause) const {
  // Rescue the arena's bytes (offsets preserved — slots and self-alias
  // offsets stay valid) onto a fresh heap arena. ReadBytes works even when
  // the spill mapping is gone: a failed ftruncate kept the mapping, a
  // failed re-map left the bytes readable through the file descriptor.
  auto heap = std::make_unique<HeapArena>();
  const size_t bytes = arena_->size();
  (void)heap->Resize(bytes);
  if (bytes > 0) TJ_RETURN_IF_ERROR(arena_->ReadBytes(heap->data()));
  std::fprintf(stderr,
               "warning: column '%s': %s (%s); falling back to heap arena\n",
               name_.c_str(), why, cause.ToString().c_str());
  RecordHeapFallbackColumn();
  RecordSpillErrorRecovered();
  // Retire (not destroy) the failed backend: concurrent readers may still
  // be probing it through resident()/spilled().
  retired_arena_ = std::move(arena_);
  arena_ = std::move(heap);
  SyncBase();
  return Status::OK();
}

void Column::AppendToArena(std::string_view value) {
  // Self-aliasing values (e.g. Append(col.Get(j))) survive the arena
  // reallocation: the offset is taken before the resize and the bytes are
  // re-read from the moved buffer.
  ArenaBackend* arena = EnsureArena();
  const size_t self_offset =
      Aliases(value, arena->data(), arena->size())
          ? static_cast<size_t>(value.data() - arena->data())
          : kNoSelfAlias;
  const size_t old_size = arena->size();
  Status grown = arena->Resize(old_size + value.size());
  if (!grown.ok()) {
    // Spill growth failed (disk full, lost mapping): keep ingesting on the
    // heap. Offsets survive the migration, so the pending slot and a
    // self-aliasing source stay correct. The rescue read can only fail on a
    // second, independent I/O failure — the bytes are unrecoverable then
    // and continuing would corrupt the column.
    const Status rescued =
        MigrateToHeap("cannot grow spill arena for append", grown);
    TJ_CHECK(rescued.ok());
    arena = arena_.get();
    grown = arena->Resize(old_size + value.size());
    TJ_CHECK(grown.ok());  // heap growth only fails by throwing
  }
  const char* src = self_offset != kNoSelfAlias ? arena->data() + self_offset
                                                : value.data();
  if (!value.empty()) std::memcpy(arena->data() + old_size, src, value.size());
  SyncBase();
}

void Column::Append(std::string_view value) {
  TJ_CHECK(!frozen_);
  TJ_CHECK(value.size() <= 0xffffffffu);  // slot lengths are 32-bit
  Slot slot;
  slot.offset = arena_ != nullptr ? arena_->size() : 0;
  slot.length = static_cast<uint32_t>(value.size());
  AppendToArena(value);
  slots_.push_back(slot);
}

void Column::ReserveChars(size_t bytes) {
  const Status reserved = EnsureArena()->Reserve(bytes);
  if (!reserved.ok()) {
    // Failing to pre-provision spill capacity is not fatal by itself, but
    // it predicts growth failures; move to the heap now while the bytes are
    // trivially rescuable instead of mid-append.
    const Status rescued =
        MigrateToHeap("cannot reserve spill capacity", reserved);
    TJ_CHECK(rescued.ok());
    (void)arena_->Reserve(bytes);
  }
  SyncBase();
}

void Column::Set(size_t row, std::string_view value) {
  TJ_CHECK(!frozen_);
  TJ_CHECK(row < slots_.size());
  TJ_CHECK(value.size() <= 0xffffffffu);  // slot lengths are 32-bit
  Slot& slot = slots_[row];
  if (value.size() <= slot.length) {
    if (!value.empty()) {
      // memmove: `value` may view this arena, overlapping the target cell.
      std::memmove(arena_->data() + slot.offset, value.data(), value.size());
    }
    slot.length = static_cast<uint32_t>(value.size());
  } else {
    slot.offset = arena_ != nullptr ? arena_->size() : 0;
    slot.length = static_cast<uint32_t>(value.size());
    AppendToArena(value);
  }
}

Status Column::Evict() const {
  if (arena_ == nullptr || !arena_->spilled() || !arena_->resident()) {
    return Status::OK();
  }
  // Eviction needs the freeze contract: an unfrozen column may have a
  // mutator about to grow the unmapped buffer.
  TJ_CHECK(frozen_);
  // On failure (sync error) the arena stays resident and views stay valid.
  const Status evicted = arena_->Evict();
  SyncBase();
  return evicted;
}

Status Column::EnsureResident() const {
  if (arena_ == nullptr) return Status::OK();
  if (!arena_->resident()) {
    std::lock_guard<std::mutex> lock(fallback_mutex_);
    // Re-check under the lock: a racing caller may have re-mapped or
    // already migrated this column.
    if (!arena_->resident()) {
      const Status mapped = arena_->EnsureResident();
      if (!mapped.ok()) {
        // Re-map failed — rescue the bytes onto the heap (pread path) so
        // reads keep working. Only a second, independent read failure
        // leaves the column evicted and surfaces the error.
        const Status rescued =
            MigrateToHeap("cannot re-map spill arena", mapped);
        if (!rescued.ok()) {
          SyncBase();
          return rescued;
        }
      }
    }
  }
  // Refresh base_ unconditionally: a racing EnsureResident on another
  // thread may have re-mapped the arena after our residency check but
  // before its own SyncBase ran — publishing the (identical) pointer again
  // is harmless, while skipping it would let Get() read a null base on a
  // resident column.
  SyncBase();
  return Status::OK();
}

void Column::ReleasePages() const {
  if (arena_ != nullptr) arena_->ReleasePages();
}

void Column::ReleaseArenaRange(size_t begin, size_t end) const {
  if (arena_ != nullptr) arena_->ReleasePages(begin, end);
}

void Column::AdoptStorage(const StorageOptions& storage) {
  // No-op only when the bytes already live where `storage` puts them: same
  // kind AND — for spill arenas — the same directory (a lazily created
  // arena has no bytes yet, so retargeting its spill_dir_ suffices).
  const bool already_there =
      spilled() == storage.spill_enabled() &&
      (!storage.spill_enabled() || arena_ == nullptr ||
       arena_->SpillDir() == storage.spill_dir);
  spill_dir_ = storage.spill_dir;
  if (already_there) return;
  const Status resident = EnsureResident();
  if (!resident.ok()) {
    // The bytes are currently unreachable (re-map AND file read failed).
    // Keep the existing backend — the file still holds the bytes, and a
    // later EnsureResident retries once the fault clears.
    std::fprintf(stderr,
                 "warning: column '%s': cannot adopt storage (%s); keeping "
                 "current backend\n",
                 name_.c_str(), resident.ToString().c_str());
    RecordSpillErrorRecovered();
    return;
  }
  // Rebuild compacted on the target backend. Views die like on a mutation,
  // but the frozen flag survives — adopting storage changes where the bytes
  // live, not what they are.
  std::unique_ptr<ArenaBackend> fresh = MakeArenaBackend(spill_dir_);
  const size_t live = CellBytes();
  if (live > 0) {
    const Status sized = fresh->Resize(live);
    if (!sized.ok()) {
      std::fprintf(stderr,
                   "warning: column '%s': cannot size adopted spill arena "
                   "(%s); using heap arena\n",
                   name_.c_str(), sized.ToString().c_str());
      RecordHeapFallbackColumn();
      RecordSpillErrorRecovered();
      fresh = std::make_unique<HeapArena>();
      (void)fresh->Resize(live);
    }
    char* dst = fresh->data();
    size_t offset = 0;
    for (Slot& s : slots_) {
      std::memcpy(dst + offset, arena_->data() + s.offset, s.length);
      s.offset = offset;
      offset += s.length;
    }
  } else {
    for (Slot& s : slots_) s.offset = 0;
  }
  arena_ = std::move(fresh);
  SyncBase();
}

double Column::AverageLength() const {
  if (slots_.empty()) return 0.0;
  return static_cast<double>(CellBytes()) /
         static_cast<double>(slots_.size());
}

std::pair<uint32_t, uint32_t> Column::LengthRange() const {
  if (slots_.empty()) return {0, 0};
  uint32_t shortest = slots_[0].length;
  uint32_t longest = slots_[0].length;
  for (const Slot& s : slots_) {
    shortest = std::min(shortest, s.length);
    longest = std::max(longest, s.length);
  }
  return {shortest, longest};
}

size_t Column::CellBytes() const {
  size_t total = 0;
  for (const Slot& s : slots_) total += s.length;
  return total;
}

Status ValidateOptions(const StorageOptions& options) {
  if (options.memory_budget_bytes > 0 && !options.spill_enabled()) {
    return Status::InvalidArgument(
        "StorageOptions::memory_budget_bytes requires a spill_dir (a "
        "budget without spill storage cannot evict anything)");
  }
  return Status::OK();
}

}  // namespace tj
