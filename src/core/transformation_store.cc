#include "core/transformation_store.h"

#include <algorithm>
#include <limits>

namespace tj {

TransformationId TransformationStore::Append(std::span<const UnitId> units) {
  if (offsets_.empty()) offsets_.push_back(0);
  TJ_CHECK(units_.size() + units.size() <=
           std::numeric_limits<uint32_t>::max());
  const auto id = static_cast<TransformationId>(offsets_.size() - 1);
  units_.insert(units_.end(), units.begin(), units.end());
  offsets_.push_back(static_cast<uint32_t>(units_.size()));
  sealed_ = false;
  return id;
}

std::vector<TransformationId> TransformationStore::Seal(
    const DynamicBitset& keep) {
  TJ_CHECK(keep.size() == size());
  std::vector<TransformationId> new_ids(size(), kDropped);
  // Kept sequences only move towards the front, and offsets_[kept + 1]
  // (kept <= id) is written only after offsets_[id + 1] is read.
  TransformationId kept = 0;
  uint32_t begin = 0;  // offsets_[id] as appended
  for (TransformationId id = 0; id < new_ids.size(); ++id) {
    const uint32_t end = offsets_[id + 1];
    if (keep.Test(id)) {
      if (offsets_[kept] != begin) {
        std::copy(units_.begin() + begin, units_.begin() + end,
                  units_.begin() + offsets_[kept]);
      }
      offsets_[kept + 1] = offsets_[kept] + (end - begin);
      new_ids[id] = kept++;
    }
    begin = end;
  }
  offsets_.resize(kept + 1);
  units_.resize(offsets_[kept]);
  sealed_ = true;
  return new_ids;
}

}  // namespace tj
