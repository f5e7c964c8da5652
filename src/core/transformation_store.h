// TransformationStore: the generated transformations.
//
// Duplicate removal is the paper's first pruning strategy (§4.1.5): the
// same transformation is generated independently by many rows, and only one
// copy is kept. Generation appends every sequence; ComputeCoverage's trie
// build, whose counting pass groups identical sequences, then seals the
// store: each distinct sequence keeps its first id, renumbered densely.
//
// Every unit sequence lives in one CSR arena: transformation `id` is
// units_[offsets_[id], offsets_[id + 1]). Units(id) is a view into it, valid
// until the next Append or Seal; Get(id) returns a copy.

#ifndef TJ_CORE_TRANSFORMATION_STORE_H_
#define TJ_CORE_TRANSFORMATION_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/logging.h"
#include "core/transformation.h"

namespace tj {

using TransformationId = uint32_t;

/// Append-only store. Ids are dense in append order.
class TransformationStore {
 public:
  TransformationStore() = default;

  TransformationStore(const TransformationStore&) = delete;
  TransformationStore& operator=(const TransformationStore&) = delete;
  TransformationStore(TransformationStore&&) = default;
  TransformationStore& operator=(TransformationStore&&) = default;

  /// Appends a (normalized) unit sequence and returns its id. `units` must
  /// not view this store's own arena.
  TransformationId Append(std::span<const UnitId> units);

  /// The unit sequence of `id`: a view valid until the next Append or Seal.
  std::span<const UnitId> Units(TransformationId id) const {
    TJ_DCHECK(id < size());
    return {units_.data() + offsets_[id], units_.data() + offsets_[id + 1]};
  }

  /// A copy of transformation `id`.
  Transformation Get(TransformationId id) const {
    const std::span<const UnitId> units = Units(id);
    return Transformation(std::vector<UnitId>(units.begin(), units.end()));
  }

  /// Number of stored transformations (distinct ones once sealed).
  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// True when no Append happened since construction or the last Seal.
  bool sealed() const { return sealed_; }

  /// Seal's new number for a dropped id.
  static constexpr TransformationId kDropped = ~TransformationId{0};

  /// Drops every id not set in `keep` (each must repeat the sequence of a
  /// smaller kept id) and compacts the arena in place, renumbering the kept
  /// ids densely in ascending order. Returns every old id's new number.
  std::vector<TransformationId> Seal(const DynamicBitset& keep);

 private:
  // CSR arena: offsets_ is size() + 1 long once the first sequence lands
  // (empty before, and after a move).
  std::vector<uint32_t> offsets_;
  std::vector<UnitId> units_;
  bool sealed_ = true;
};

}  // namespace tj

#endif  // TJ_CORE_TRANSFORMATION_STORE_H_
