// ColumnSignature: a compact, order-independent summary of a join column —
// length/charset statistics plus an n-gram MinHash sketch — computed once
// per column by the TableCatalog and compared in O(k) by the PairPruner.
//
// The sketch answers "how much of this column's n-gram vocabulary is shared
// with that column's?" without touching either column again: the classic
// MinHash estimate of the Jaccard similarity between the two distinct-gram
// sets, converted to a containment estimate using the exact distinct-gram
// counts the signature also records. This is the corpus-scale analogue of
// the paper's Rscore intuition (§4.2.1): joinable columns share rare grams,
// so a pair whose estimated gram containment is near zero cannot produce
// representative matches and is pruned before any index is built.

#ifndef TJ_CORPUS_SIGNATURE_H_
#define TJ_CORPUS_SIGNATURE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "table/column.h"
#include "text/ngram.h"

namespace tj {

/// Character-class bits recorded in ColumnSignature::charset_mask. Classes
/// are computed on the same lowercased text the sketch sees.
enum CharsetBit : uint32_t {
  kCharsetLower = 1u << 0,
  kCharsetUpper = 1u << 1,
  kCharsetDigit = 1u << 2,
  kCharsetSpace = 1u << 3,
  kCharsetPunct = 1u << 4,
  kCharsetOther = 1u << 5,  // non-ASCII / control bytes
};

/// The one CharsetBit of a byte: text/char_class.h's digit, space and
/// punctuation classes, letters split by case, and kCharsetOther for the
/// rest.
uint32_t CharsetBitOf(char c);

// The one sketch geometry. Rows are always ASCII-lowercased before
// sketching, as the row matcher lowers them.

/// Sketched n-gram length: the row matcher's smallest representative size.
/// Every representative gram of a pair has a kMinGram-gram prefix both
/// columns hold, so a pair with no shared sketched gram has none.
inline constexpr size_t kSketchNgram = kMinGram;

/// MinHash slots. 128 gives a Jaccard standard error of ~0.044 at J=0.25
/// — far finer than the default containment floor needs.
inline constexpr size_t kSketchSlots = 128;

/// Base seed of the slot hash family. Fixed so sketches are reproducible
/// and comparable across runs and machines.
inline constexpr uint64_t kSketchSeed = 0x746a636f72707573ULL;  // "tjcorpus"

/// Value returned by empty MinHash slots (no grams hashed).
inline constexpr uint64_t kEmptyMinhashSlot = ~0ULL;

struct ColumnSignature {
  uint32_t num_rows = 0;
  /// Distinct n-grams, counted by 64-bit gram hash (collisions conflate
  /// grams with probability ~n^2 / 2^64 — negligible, and deterministic).
  uint64_t distinct_ngrams = 0;
  uint32_t min_length = 0;
  uint32_t max_length = 0;
  double mean_length = 0.0;
  uint32_t charset_mask = 0;  // OR of CharsetBit over all cells
  /// kSketchSlots slots: all empty when distinct_ngrams is 0, none empty
  /// otherwise. Every distinct gram lowers every slot, so a slot stays
  /// empty only if each gram hashes to ~0 there (2^-64 per gram).
  std::vector<uint64_t> minhash;

  bool operator==(const ColumnSignature& other) const;
};

/// Scans the column once and builds its signature. Deterministic: depends
/// only on the cell values.
ColumnSignature ComputeColumnSignature(const Column& column);

/// MinHash estimate of the Jaccard similarity of the two distinct-gram
/// sets: matching slots / total slots. 0 when either column sketched no
/// grams.
double EstimateJaccard(const ColumnSignature& a, const ColumnSignature& b);

/// Estimated containment of the smaller distinct-gram set in the larger:
/// |A intersect B| / min(|A|, |B|), derived from the Jaccard estimate and
/// the exact distinct-gram counts, clamped to [0, 1]. This is the pruning
/// score: a transformed join column's grams are largely a subset of its
/// source's, so genuine joinable pairs score high even when the columns'
/// vocabulary sizes differ widely.
double EstimateNgramContainment(const ColumnSignature& a,
                                const ColumnSignature& b);

}  // namespace tj

#endif  // TJ_CORPUS_SIGNATURE_H_
