#include "corpus/lsh_index.h"

#include <algorithm>

#include "common/hash.h"

namespace tj {
namespace {

/// Seed separating bucket keys from every other HashCombine chain in the
/// codebase ("tjlsh"). A stray cross-domain collision would only cost one
/// extra exact ScoreColumnPair, but keeping the domains distinct makes
/// bucket statistics meaningful.
constexpr uint64_t kLshSeed = 0x746a6c7368ULL;

}  // namespace

std::vector<uint64_t> LshIndex::BucketKeys(const ColumnSignature& signature) {
  std::vector<uint64_t> keys;
  keys.reserve(signature.minhash.size());
  for (size_t slot = 0; slot < signature.minhash.size(); ++slot) {
    const uint64_t value = signature.minhash[slot];
    // An empty slot carries no evidence; bucketing it would make every
    // sparse sketch collide with every other in that slot.
    if (value == kEmptyMinhashSlot) continue;
    keys.push_back(HashCombine(HashCombine(kLshSeed, slot), value));
  }
  return keys;
}

void LshIndex::Insert(ColumnRef ref, const ColumnSignature& signature) {
  std::vector<uint64_t> keys = BucketKeys(signature);
  if (keys.empty()) return;
  for (uint64_t key : keys) buckets_[key].push_back(ref);
  keys_[ref] = std::move(keys);
}

void LshIndex::RemoveTable(uint32_t table_id) {
  const auto begin = keys_.lower_bound(ColumnRef{table_id, 0});
  auto it = begin;
  for (; it != keys_.end() && it->first.table == table_id; ++it) {
    for (uint64_t key : it->second) {
      auto bucket = buckets_.find(key);
      if (bucket == buckets_.end()) continue;
      std::vector<ColumnRef>& refs = bucket->second;
      refs.erase(std::remove(refs.begin(), refs.end(), it->first),
                 refs.end());
      if (refs.empty()) buckets_.erase(bucket);
    }
  }
  keys_.erase(begin, it);
}

std::vector<ColumnRef> LshIndex::Probe(
    const ColumnSignature& signature) const {
  std::vector<ColumnRef> hits;
  for (uint64_t key : BucketKeys(signature)) {
    auto bucket = buckets_.find(key);
    if (bucket == buckets_.end()) continue;
    hits.insert(hits.end(), bucket->second.begin(), bucket->second.end());
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return hits;
}

void LshIndex::Clear() {
  buckets_.clear();
  keys_.clear();
}

}  // namespace tj
