// NgramInvertedIndex: hash-organized inverted index over all character
// n-grams of sizes [kMinGram, kMaxGram] (text/ngram.h) in a column, rows
// ASCII-lowercased (paper §4.2.1). Maps each n-gram to
// the sorted, deduplicated list of rows containing it; also serves
// row-frequency (document-frequency) lookups for the IRF score.
//
// Storage model (flat / zero-copy): the index owns exactly four flat
// buffers —
//   gram_chars_      every distinct gram's bytes, concatenated in gram-id
//                    order (one char arena; gram keys are views into it),
//   gram_starts_     CSR offsets into gram_chars_ (num_grams + 1 entries),
//   postings_        every posting row id, concatenated in gram-id order,
//   posting_starts_  CSR offsets into postings_ (num_grams + 1 entries),
// plus one open-addressed slot table mapping hash(gram) -> gram id. No
// per-gram heap node, no per-gram posting vector: the build performs O(1)
// allocations (amortized growth of the flat buffers) instead of O(distinct
// grams). tests/parallel_determinism_test.cc keeps the map-based builder
// this layout replaced as its oracle.
//
// Gram ids are assigned in global first-seen row-scan order, which the
// sharded parallel build reproduces exactly (shards cover ascending row
// ranges and merge in shard order), so the four buffers are bit-identical
// for every thread count — a stronger property than the previous map's
// "same content, unspecified order".

#ifndef TJ_INDEX_INVERTED_INDEX_H_
#define TJ_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "table/column.h"

namespace tj {

class ThreadPool;

/// Immutable after Build(). Lookup and Df are O(1) expected.
class NgramInvertedIndex {
 public:
  NgramInvertedIndex() = default;

  /// Indexes every n-gram of sizes kMinGram..kMaxGram (inclusive) of every
  /// row, ASCII-lowercased first (queries must be lowercased by the caller
  /// too).
  ///
  /// Runs on the caller's pool (nullptr = serial) and constructs none of its
  /// own; falls back to the serial build when called from inside a
  /// ParallelFor chunk. Postings are built over contiguous row shards and
  /// merged in row order, so the index — including gram-id assignment — is
  /// identical for every pool size.
  static NgramInvertedIndex Build(const Column& column,
                                  ThreadPool* pool = nullptr);

  /// Sentinel GramId returns for an unseen n-gram.
  static constexpr uint32_t kNoGram = 0xffffffffu;

  /// Rows containing the n-gram, ascending and deduplicated; empty span for
  /// unseen n-grams. The span points into the index's posting buffer and is
  /// valid for the index's lifetime (moves included).
  std::span<const uint32_t> Lookup(std::string_view gram) const;

  /// The n-gram's dense id, or kNoGram when unseen. `hash` must equal
  /// HashString(gram): a caller that extends one FNV-1a state a byte at a
  /// time across gram sizes passes Mix64(state) instead of rehashing every
  /// gram from its first byte.
  uint32_t GramId(std::string_view gram, uint64_t hash) const;

  /// Number of distinct rows containing the n-gram (the denominator of the
  /// paper's IRF, Eq. 1).
  size_t Df(std::string_view gram) const { return Lookup(gram).size(); }

  size_t num_rows() const { return num_rows_; }
  size_t num_grams() const {
    return gram_starts_.empty() ? 0 : gram_starts_.size() - 1;
  }

  /// Total posting entries (index size diagnostic). O(1): the postings
  /// buffer's length IS the count in the CSR layout.
  size_t TotalPostings() const { return postings_.size(); }

  /// The id-th gram's bytes (ids are dense, [0, num_grams()), assigned in
  /// global first-seen order).
  std::string_view gram(uint32_t id) const;
  /// The id-th gram's posting list (ascending, deduplicated).
  std::span<const uint32_t> postings(uint32_t id) const;

  /// Heap bytes held by the four flat buffers and the slot table.
  size_t MemoryBytes() const;

 private:
  /// Builds the slot table from the final gram set (capacity = power of two
  /// >= num_grams / 0.7).
  void RebuildSlotTable();

  size_t num_rows_ = 0;
  std::vector<char> gram_chars_;
  std::vector<uint64_t> gram_starts_;     // num_grams + 1 when non-empty
  std::vector<uint32_t> postings_;
  std::vector<uint64_t> posting_starts_;  // num_grams + 1 when non-empty
  std::vector<uint32_t> slots_;           // open-addressed: gram id/kEmptySlot
};

}  // namespace tj

#endif  // TJ_INDEX_INVERTED_INDEX_H_
