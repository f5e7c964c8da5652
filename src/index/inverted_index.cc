#include "index/inverted_index.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "text/ngram.h"

namespace tj {
namespace {

constexpr uint32_t kNoGram = NgramInvertedIndex::kNoGram;
constexpr uint32_t kNoRow = 0xffffffffu;

size_t SlotCapacityFor(size_t num_grams) {
  // Power of two >= num_grams / 0.7, floor 16 — keeps probes short.
  size_t capacity = 16;
  while (capacity * 7 < num_grams * 10) capacity <<= 1;
  return capacity;
}

/// Rebuilds an open-addressed slot table over grams [0, num_grams), with
/// capacity SlotCapacityFor(size_for) — pass size_for > num_grams for
/// growth headroom. `gram_of(id)` must return the id-th gram's bytes.
/// Shared by the shard dictionaries and the final index so build-side and
/// query-side tables can never diverge in capacity or probe scheme.
template <typename GramOf>
void FillSlotTable(std::vector<uint32_t>* slots, size_t num_grams,
                   size_t size_for, uint32_t empty_slot,
                   const GramOf& gram_of) {
  const size_t capacity = SlotCapacityFor(size_for);
  slots->assign(capacity, empty_slot);
  const size_t mask = capacity - 1;
  for (uint32_t id = 0; id < num_grams; ++id) {
    size_t i = static_cast<size_t>(HashString(gram_of(id))) & mask;
    while ((*slots)[i] != empty_slot) i = (i + 1) & mask;
    (*slots)[i] = id;
  }
}

/// One shard's build state: a flat gram dictionary (char arena + CSR starts
/// + open-addressed slot table) and the shard's occurrence stream, deduped
/// per row. All storage is a handful of flat vectors — the build performs no
/// per-gram allocation.
struct ShardBuild {
  std::vector<char> chars;
  std::vector<uint64_t> starts{0};
  std::vector<uint32_t> slots;
  std::vector<uint32_t> last_row;  // per gram: last row recorded (dedup)
  std::vector<uint32_t> occ_gram;  // occurrence stream, row-ascending
  std::vector<uint32_t> occ_row;

  size_t num_grams() const { return starts.size() - 1; }

  std::string_view gram(uint32_t id) const {
    return std::string_view(chars.data() + starts[id],
                            starts[id + 1] - starts[id]);
  }

  /// Returns the gram's dense id, appending its bytes on first sight.
  uint32_t FindOrInsert(std::string_view g) {
    if (slots.empty() || num_grams() * 10 >= slots.size() * 7) {
      // 2x headroom: the table is rebuilt O(log n) times, not per insert.
      FillSlotTable(&slots, num_grams(),
                    std::max<size_t>(num_grams() * 2, 16), kNoGram,
                    [this](uint32_t id) { return gram(id); });
    }
    const size_t mask = slots.size() - 1;
    size_t i = static_cast<size_t>(HashString(g)) & mask;
    while (true) {
      const uint32_t id = slots[i];
      if (id == kNoGram) {
        const auto fresh = static_cast<uint32_t>(num_grams());
        chars.insert(chars.end(), g.begin(), g.end());
        starts.push_back(chars.size());
        last_row.push_back(kNoRow);
        slots[i] = fresh;
        return fresh;
      }
      if (gram(id) == g) return id;
      i = (i + 1) & mask;
    }
  }
};

/// Scans rows [begin, end) of `column` into `shard`. Rows ascend, so the
/// per-row dedup needs only the per-gram last_row check; the occurrence
/// stream comes out grouped nowhere but ordered by row, which is all the
/// CSR fill below needs. The lowercase scratch is reused across rows — one
/// amortized allocation per shard instead of one per row.
void IndexRowRange(const Column& column, size_t begin, size_t end,
                   ShardBuild* shard) {
  // Exact upper bound on the shard's occurrence count (every enumerated
  // gram, before per-row dedup) from the row lengths alone — one closed-form
  // pass, so the two occurrence buffers are allocated once instead of
  // growing by doubling.
  size_t max_occurrences = 0;
  for (size_t row = begin; row < end; ++row) {
    const size_t len = column.Get(row).size();
    const size_t nhi = std::min(kMaxGram, len);
    if (nhi < kMinGram) continue;  // row shorter than kMinGram
    const size_t k = nhi - kMinGram + 1;
    max_occurrences += k * (len + 1) - (kMinGram + nhi) * k / 2;
  }
  shard->occ_gram.reserve(max_occurrences);
  shard->occ_row.reserve(max_occurrences);

  std::string lowered;
  for (size_t row = begin; row < end; ++row) {
    lowered.clear();
    AppendLowerAscii(column.Get(row), &lowered);
    const auto row32 = static_cast<uint32_t>(row);
    for (size_t n = kMinGram; n <= kMaxGram && n <= lowered.size(); ++n) {
      ForEachNgram(lowered, n, [&](std::string_view g) {
        const uint32_t id = shard->FindOrInsert(g);
        if (shard->last_row[id] != row32) {
          shard->last_row[id] = row32;
          shard->occ_gram.push_back(id);
          shard->occ_row.push_back(row32);
        }
      });
    }
  }
}

}  // namespace

NgramInvertedIndex NgramInvertedIndex::Build(const Column& column,
                                             ThreadPool* pool) {
  NgramInvertedIndex index;
  index.num_rows_ = column.size();

  // Shard the rows (one shard = the serial path), build each shard's flat
  // dictionary + occurrence stream, then merge in shard order. Shard row
  // ranges ascend with the shard id and gram ids are assigned on first
  // sight, so the merged gram-id order equals the serial global first-seen
  // order and the merged posting lists stay ascending and deduplicated —
  // the four flat buffers are bit-identical for every shard count.
  const bool parallel = pool != nullptr && pool->size() > 1 &&
                        column.size() >= 2 && !InParallelFor();
  const size_t num_shards =
      parallel ? std::min(column.size(), static_cast<size_t>(pool->size()))
               : 1;
  std::vector<ShardBuild> shards(num_shards);
  if (parallel) {
    pool->ParallelFor(column.size(), num_shards,
                      [&](int /*worker*/, size_t shard, size_t begin,
                          size_t end) {
                        IndexRowRange(column, begin, end, &shards[shard]);
                      });
  } else {
    IndexRowRange(column, 0, column.size(), &shards[0]);
  }

  // Global gram ids + per-gram posting counts. The single-shard case adopts
  // the shard's dictionary wholesale (remap is the identity).
  std::vector<uint32_t> counts;
  std::vector<std::vector<uint32_t>> remaps(num_shards);
  if (num_shards == 1) {
    ShardBuild& s = shards[0];
    index.gram_chars_ = std::move(s.chars);
    index.gram_starts_ = std::move(s.starts);
    counts.assign(index.num_grams(), 0);
    for (const uint32_t g : s.occ_gram) ++counts[g];
  } else {
    ShardBuild merged;  // dictionary part only (occ streams stay sharded)
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardBuild& shard = shards[s];
      remaps[s].resize(shard.num_grams());
      for (uint32_t id = 0; id < shard.num_grams(); ++id) {
        const uint32_t gid = merged.FindOrInsert(shard.gram(id));
        if (gid == counts.size()) counts.push_back(0);
        remaps[s][id] = gid;
      }
      for (const uint32_t g : shard.occ_gram) ++counts[remaps[s][g]];
    }
    index.gram_chars_ = std::move(merged.chars);
    index.gram_starts_ = std::move(merged.starts);
  }

  // CSR fill: prefix-sum the counts, then cursor-copy each shard's
  // occurrences in shard (= row) order.
  index.posting_starts_.resize(counts.size() + 1);
  index.posting_starts_[0] = 0;
  for (size_t g = 0; g < counts.size(); ++g) {
    index.posting_starts_[g + 1] = index.posting_starts_[g] + counts[g];
  }
  index.postings_.resize(index.posting_starts_.back());
  std::vector<uint64_t> cursor(index.posting_starts_.begin(),
                               index.posting_starts_.end() - 1);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardBuild& shard = shards[s];
    const std::vector<uint32_t>* remap =
        num_shards == 1 ? nullptr : &remaps[s];
    for (size_t i = 0; i < shard.occ_gram.size(); ++i) {
      const uint32_t gid =
          remap == nullptr ? shard.occ_gram[i] : (*remap)[shard.occ_gram[i]];
      index.postings_[cursor[gid]++] = shard.occ_row[i];
    }
    shard = ShardBuild();  // release shard memory as soon as merged
  }

  if (index.num_grams() == 0) {
    // Normalize the empty index: no buffers at all (gram_starts_ may hold
    // the lone sentinel 0 from the adopted shard).
    index.gram_starts_.clear();
    index.posting_starts_.clear();
    return index;
  }
  index.RebuildSlotTable();
  return index;
}

uint32_t NgramInvertedIndex::GramId(std::string_view g, uint64_t hash) const {
  if (slots_.empty()) return kNoGram;
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (true) {
    const uint32_t id = slots_[i];
    if (id == kNoGram) return kNoGram;
    if (gram(id) == g) return id;
    i = (i + 1) & mask;
  }
}

void NgramInvertedIndex::RebuildSlotTable() {
  FillSlotTable(&slots_, num_grams(), num_grams(), kNoGram,
                [this](uint32_t id) { return gram(id); });
}

std::span<const uint32_t> NgramInvertedIndex::Lookup(
    std::string_view g) const {
  const uint32_t id = GramId(g, HashString(g));
  if (id == kNoGram) return {};
  return postings(id);
}

std::string_view NgramInvertedIndex::gram(uint32_t id) const {
  TJ_DCHECK(id < num_grams());
  return std::string_view(gram_chars_.data() + gram_starts_[id],
                          gram_starts_[id + 1] - gram_starts_[id]);
}

std::span<const uint32_t> NgramInvertedIndex::postings(uint32_t id) const {
  TJ_DCHECK(id < num_grams());
  return std::span<const uint32_t>(
      postings_.data() + posting_starts_[id],
      posting_starts_[id + 1] - posting_starts_[id]);
}

size_t NgramInvertedIndex::MemoryBytes() const {
  return gram_chars_.capacity() * sizeof(char) +
         gram_starts_.capacity() * sizeof(uint64_t) +
         postings_.capacity() * sizeof(uint32_t) +
         posting_starts_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(uint32_t);
}

}  // namespace tj
