// TransformationStore: hash-consing store for transformations.
//
// Duplicate removal is the paper's first pruning strategy (§4.1.5): the same
// transformation is generated independently by many rows, and only one copy
// is kept. The store also counts insert attempts so the duplicate ratio of
// Table 4 falls out for free.
//
// Layout. Every unit sequence lives in one CSR arena: transformation `id`
// is units_[offsets_[id], offsets_[id + 1]). A new sequence costs an append
// to two vectors, never a heap block of its own, and a coverage pass reads
// the sequences as two contiguous streams. Dedup is an open-addressed,
// linear-probe table of 8-byte slots, each an id and a 32-bit hash tag; a
// probe compares tags and reads the arena only on a tag match, and a growth
// rehash reads only the slot array.
//
// Access. Units(id) is a view into the arena, valid until the next insert
// (which may reallocate it). Get(id) copies the sequence into a
// Transformation, for callers that keep it or call its methods.

#ifndef TJ_CORE_TRANSFORMATION_STORE_H_
#define TJ_CORE_TRANSFORMATION_STORE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/transformation.h"

namespace tj {

using TransformationId = uint32_t;

/// Append-only deduplicating store. Ids are dense in insertion order.
class TransformationStore {
 public:
  TransformationStore() = default;

  TransformationStore(const TransformationStore&) = delete;
  TransformationStore& operator=(const TransformationStore&) = delete;
  TransformationStore(TransformationStore&&) = default;
  TransformationStore& operator=(TransformationStore&&) = default;

  /// Interns `t`; returns its id and whether it was newly inserted. When
  /// `dedup` is false (ablation mode) every call inserts a fresh copy.
  std::pair<TransformationId, bool> Intern(const Transformation& t,
                                           bool dedup = true) {
    return InternUnits(t.units(), dedup);
  }

  /// Interns a raw (already normalized) unit sequence; same contract as
  /// Intern. `units` must not view this store's own arena.
  std::pair<TransformationId, bool> InternUnits(std::span<const UnitId> units,
                                                bool dedup = true);

  /// The unit sequence of `id`: a view valid until the next insert.
  std::span<const UnitId> Units(TransformationId id) const {
    TJ_DCHECK(id < size());
    return {units_.data() + offsets_[id], units_.data() + offsets_[id + 1]};
  }

  /// A copy of transformation `id`.
  Transformation Get(TransformationId id) const {
    const std::span<const UnitId> units = Units(id);
    return Transformation(std::vector<UnitId>(units.begin(), units.end()));
  }

  /// Number of stored (unique, unless dedup was disabled) transformations.
  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Total Intern() calls on this store. For a store filled by a serial
  /// discovery run this equals the paper's "generated transformations";
  /// under parallel discovery the merge re-interns shard-deduplicated
  /// stores, so use DiscoveryStats::generated_transformations (exact for
  /// every thread count) for that figure instead.
  uint64_t insert_attempts() const { return insert_attempts_; }

 private:
  /// One open-addressing slot. The tag is the low half of the sequence's
  /// hash and also picks the home slot, so a rehash needs nothing else.
  struct Slot {
    uint32_t id_plus_one = 0;  // 0 = empty
    uint32_t tag = 0;
  };

  /// Rebuilds the slot table at `new_size` (a power of two).
  void Rehash(size_t new_size);

  // CSR arena: offsets_ is size() + 1 long once the first sequence lands
  // (empty before, and after a move).
  std::vector<uint32_t> offsets_;
  std::vector<UnitId> units_;
  std::vector<Slot> slots_;
  uint64_t insert_attempts_ = 0;
};

}  // namespace tj

#endif  // TJ_CORE_TRANSFORMATION_STORE_H_
