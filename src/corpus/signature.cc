#include "corpus/signature.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "common/hash.h"
#include "common/strings.h"
#include "text/char_class.h"

namespace tj {
namespace {

// The two loops over the sketch slots are the hot ones: the slot update
// runs once per distinct gram of every column, the equal-slot count once
// per scored pair. On x86 GCC each is compiled twice, for AVX2 and for the
// baseline ISA, and the loader picks one by CPUID. Both clones compile the
// same integer loop, so no sketch, estimate or output depends on the pick.
// Not under ThreadSanitizer: GCC instruments the clones' ifunc resolver,
// which runs before the TSan runtime is up and crashes at start-up, so a
// TSan build runs the baseline loops.
#if defined(__GNUC__) && !defined(__clang__) && \
    (defined(__x86_64__) || defined(__i386__)) && \
    !defined(__SANITIZE_THREAD__)
#define TJ_SKETCH_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define TJ_SKETCH_CLONES
#endif

TJ_SKETCH_CLONES void MinhashUpdate(uint64_t base, const uint64_t* slot_seeds,
                                    uint64_t* minhash) {
  for (size_t i = 0; i < kSketchSlots; ++i) {
    minhash[i] = std::min(minhash[i], Mix64(base ^ slot_seeds[i]));
  }
}

/// Branch-free: the AVX2 clone vectorizes it, and the baseline clone has
/// no branch to mispredict on random slot values.
TJ_SKETCH_CLONES size_t CountEqualSlots(const uint64_t* a, const uint64_t* b) {
  size_t matches = 0;
  for (size_t i = 0; i < kSketchSlots; ++i) matches += a[i] == b[i];
  return matches;
}

constexpr std::array<uint8_t, 256> kCharsetLut = [] {
  std::array<uint8_t, 256> lut{};
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    lut[byte] = IsAlphaChar(c)   ? (c >= 'a' ? kCharsetLower : kCharsetUpper)
                : IsDigitChar(c) ? kCharsetDigit
                : IsSpaceChar(c) ? kCharsetSpace
                : IsPunctChar(c) ? kCharsetPunct
                                 : kCharsetOther;
  }
  return lut;
}();

}  // namespace

uint32_t CharsetBitOf(char c) {
  return kCharsetLut[static_cast<unsigned char>(c)];
}

bool ColumnSignature::operator==(const ColumnSignature& other) const {
  return num_rows == other.num_rows &&
         distinct_ngrams == other.distinct_ngrams &&
         min_length == other.min_length && max_length == other.max_length &&
         mean_length == other.mean_length &&
         charset_mask == other.charset_mask && minhash == other.minhash;
}

ColumnSignature ComputeColumnSignature(const Column& column) {
  ColumnSignature sig;
  sig.num_rows = static_cast<uint32_t>(column.size());
  sig.minhash.assign(kSketchSlots, kEmptyMinhashSlot);

  // Per-slot seeds of the hash family: one Mix64 of (base seed, slot).
  std::vector<uint64_t> slot_seeds(kSketchSlots);
  for (size_t i = 0; i < kSketchSlots; ++i) {
    slot_seeds[i] = HashCombine(kSketchSeed, i);
  }

  std::unordered_set<uint64_t> distinct;
  uint64_t total_length = 0;
  sig.min_length = column.empty() ? 0 : ~0u;
  // One streaming pass in arena order; on a spilled column the pages
  // behind each processed block are released before the next block is
  // touched (ForEachCellStreamed), so sketching an out-of-core column
  // faults it in one block at a time instead of pinning it whole.
  std::string lowered;  // reused across rows: one amortized allocation
  ForEachCellStreamed(column, [&](std::string_view text) {
    lowered.clear();
    AppendLowerAscii(text, &lowered);
    text = lowered;
    const auto length = static_cast<uint32_t>(text.size());
    total_length += length;
    sig.min_length = std::min(sig.min_length, length);
    sig.max_length = std::max(sig.max_length, length);
    for (const char c : text) sig.charset_mask |= CharsetBitOf(c);

    // Gram hashing inlined over the contiguous cell bytes: the same FNV-1a
    // + Mix64 recurrence as HashString(gram) (pinned by FnvPin in
    // tests/common_test.cc), without a per-gram substr + hash call through
    // ForEachNgram.
    if (kSketchNgram <= text.size()) {
      const char* data = text.data();
      for (size_t i = 0; i + kSketchNgram <= text.size(); ++i) {
        uint64_t h = kFnvOffsetBasis;
        for (size_t j = 0; j < kSketchNgram; ++j) {
          h ^= static_cast<unsigned char>(data[i + j]);
          h *= kFnvPrime;
        }
        const uint64_t base = Mix64(h);
        if (!distinct.insert(base).second) continue;  // already sketched
        MinhashUpdate(base, slot_seeds.data(), sig.minhash.data());
      }
    }
  });
  sig.distinct_ngrams = distinct.size();
  if (!column.empty()) {
    sig.mean_length = static_cast<double>(total_length) /
                      static_cast<double>(column.size());
  }
  return sig;
}

double EstimateJaccard(const ColumnSignature& a, const ColumnSignature& b) {
  if (a.distinct_ngrams == 0 || b.distinct_ngrams == 0) return 0.0;
  const size_t matches = CountEqualSlots(a.minhash.data(), b.minhash.data());
  return static_cast<double>(matches) / static_cast<double>(kSketchSlots);
}

double EstimateNgramContainment(const ColumnSignature& a,
                                const ColumnSignature& b) {
  const double jaccard = EstimateJaccard(a, b);
  if (jaccard <= 0.0) return 0.0;
  const auto smaller = static_cast<double>(
      std::min(a.distinct_ngrams, b.distinct_ngrams));
  if (smaller <= 0.0) return 0.0;
  // |A ∪ B| = (|A| + |B|) / (1 + J) and |A ∩ B| = J * |A ∪ B|.
  const double total = static_cast<double>(a.distinct_ngrams) +
                       static_cast<double>(b.distinct_ngrams);
  const double intersection = jaccard * total / (1.0 + jaccard);
  return std::min(1.0, intersection / smaller);
}

}  // namespace tj
