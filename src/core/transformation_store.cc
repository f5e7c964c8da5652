#include "core/transformation_store.h"

#include <algorithm>
#include <limits>

namespace tj {
namespace {

/// Slot count (a power of two, at least 64) that holds `n` items under the
/// 2/3 load cap.
size_t SlotsFor(size_t n) {
  size_t slots = 64;
  while (n * 3 > slots * 2) slots *= 2;
  return slots;
}

}  // namespace

void TransformationStore::Rehash(size_t new_size) {
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_size, Slot{});
  const size_t mask = new_size - 1;
  for (const Slot slot : old) {
    if (slot.id_plus_one == 0) continue;
    size_t pos = slot.tag & mask;
    while (slots_[pos].id_plus_one != 0) pos = (pos + 1) & mask;
    slots_[pos] = slot;
  }
}

std::pair<TransformationId, bool> TransformationStore::InternUnits(
    std::span<const UnitId> units, bool dedup) {
  ++insert_attempts_;
  if (offsets_.empty()) offsets_.push_back(0);
  const size_t count = offsets_.size() - 1;
  // Grow at 2/3 load before probing so the found slot stays valid.
  if ((count + 1) * 3 > slots_.size() * 2) Rehash(SlotsFor(count + 1));
  const auto tag = static_cast<uint32_t>(
      Transformation::HashUnits(units.data(), units.size()));
  const size_t mask = slots_.size() - 1;
  size_t pos = tag & mask;
  for (; slots_[pos].id_plus_one != 0; pos = (pos + 1) & mask) {
    if (!dedup || slots_[pos].tag != tag) continue;
    const TransformationId id = slots_[pos].id_plus_one - 1;
    if (std::ranges::equal(Units(id), units)) return {id, false};
  }
  TJ_CHECK(units_.size() + units.size() <=
           std::numeric_limits<uint32_t>::max());
  const auto id = static_cast<TransformationId>(count);
  units_.insert(units_.end(), units.begin(), units.end());
  offsets_.push_back(static_cast<uint32_t>(units_.size()));
  slots_[pos] = Slot{id + 1, tag};
  return {id, true};
}

}  // namespace tj
