// GramHashSet: the distinct-gram set of one ComputeColumnSignature call.
// Private to corpus/signature.cc and its tests.

#ifndef TJ_CORPUS_GRAM_HASH_SET_H_
#define TJ_CORPUS_GRAM_HASH_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tj {

/// A set of 64-bit gram hashes: a power-of-two table of uint64_t, probed
/// linearly from the hash's low bits (gram hashes are Mix64 outputs, so
/// the low bits are uniform) and doubled as soon as it is more than half
/// full. 0 marks an empty slot, so a zero hash is counted apart.
/// That is 16-32 B per distinct gram in one allocation, where a
/// std::unordered_set<uint64_t> pays a heap node per gram plus its bucket.
class GramHashSet {
 public:
  /// Adds `hash`; true when it was not in the set yet.
  bool Insert(uint64_t hash) {
    if (hash == 0) {
      const bool added = !has_zero_;
      has_zero_ = true;
      return added;
    }
    size_t i = hash & mask_;
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i] == hash) return false;
    }
    slots_[i] = hash;
    if (2 * ++count_ > slots_.size()) Grow();
    return true;
  }

  /// Number of distinct hashes inserted.
  uint64_t size() const { return count_ + (has_zero_ ? 1 : 0); }

  /// Table size before the first doubling.
  static constexpr size_t kInitialSlots = 256;

 private:
  void Grow() {
    std::vector<uint64_t> old(2 * slots_.size(), 0);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const uint64_t hash : old) {
      if (hash == 0) continue;
      size_t i = hash & mask_;
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = hash;
    }
  }

  std::vector<uint64_t> slots_ = std::vector<uint64_t>(kInitialSlots, 0);
  size_t mask_ = kInitialSlots - 1;
  size_t count_ = 0;  // nonzero hashes in slots_
  bool has_zero_ = false;
};

}  // namespace tj

#endif  // TJ_CORPUS_GRAM_HASH_SET_H_
