// Kernel-equivalence suite for the SIMD dispatch layer (ctest label
// "simd"). The codebase's determinism contract is bit-identical outputs,
// so every vector kernel must compute the SAME function as its scalar
// twin — these tests prove it the hard way: exhaustively over all 256
// byte values, over lengths spanning the 32-byte vector width (0..130,
// hitting every head/body/tail split), and at unaligned offsets.
//
// The suite is registered twice in CMake: once under the default
// environment (dispatch resolves to the best CPU level) and once under
// TJ_FORCE_SCALAR=1 (dispatch pinned to scalar before main()). The AVX2
// twins are tested directly off raw CPUID in both runs, so forcing the
// dispatcher scalar does not lose vector-kernel coverage.
//
// On top of the kernel twins: the charset LUT vs the branchy reference,
// the inline FNV gram recurrence vs HashString, ComputeColumnSignature
// vs a from-first-principles reference sketch, and the full discovery
// pipeline (heap and spilled storage, 1/2/4/8 threads) bit-identical
// between scalar and best-level dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/simd.h"
#include "common/strings.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"
#include "table/column.h"
#include "text/ngram.h"

namespace tj {
namespace {

using simd::SimdLevel;

/// Restores the dispatch level a test mutated (the suite runs in one
/// process; a leaked SetActiveLevel would bleed into later tests).
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(simd::ActiveLevel()) {}
  ~ScopedSimdLevel() { simd::SetActiveLevel(saved_); }

 private:
  SimdLevel saved_;
};

/// True when the AVX2 twins may be CALLED on this machine — raw CPUID,
/// deliberately not BestSupportedLevel(), which TJ_FORCE_SCALAR pins to
/// scalar (the forced run must still exercise the vector kernels
/// directly; only the dispatcher is pinned).
bool CpuHasAvx2() {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Deterministic byte pattern covering all 256 values at every alignment
/// phase (251 is coprime to 256, so consecutive windows differ).
std::vector<char> PatternBytes(size_t n, uint64_t seed) {
  std::vector<char> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>((seed + i * 251) & 0xff);
  }
  return bytes;
}

std::vector<uint64_t> PatternWords(size_t n, uint64_t seed) {
  std::vector<uint64_t> words(n);
  for (size_t i = 0; i < n; ++i) words[i] = Mix64(seed + i);
  return words;
}

// Lengths 0..130 cross every split of a 32-byte (4-word) vector body:
// empty, sub-vector, exact multiples, and every tail size around them.
constexpr size_t kMaxLen = 130;
// Offsets 0..7 un-align the buffers against the vector width.
constexpr size_t kMaxOffset = 8;

TEST(CharsetLut, MatchesBranchyReferenceExhaustively) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(simd::kCharsetLut[c],
              simd::CharsetBitOfByteReference(static_cast<unsigned char>(c)))
        << "byte " << c;
  }
}

TEST(CharsetLut, ReferenceClassesAreDisjointAndTotal) {
  int lower = 0, upper = 0, digit = 0, space = 0, punct = 0, other = 0;
  for (int c = 0; c < 256; ++c) {
    const uint32_t bit = simd::kCharsetLut[c];
    // Exactly one class bit per byte.
    EXPECT_EQ(__builtin_popcount(bit), 1) << "byte " << c;
    lower += bit == simd::kCharsetLowerBit;
    upper += bit == simd::kCharsetUpperBit;
    digit += bit == simd::kCharsetDigitBit;
    space += bit == simd::kCharsetSpaceBit;
    punct += bit == simd::kCharsetPunctBit;
    other += bit == simd::kCharsetOtherBit;
  }
  EXPECT_EQ(lower, 26);
  EXPECT_EQ(upper, 26);
  EXPECT_EQ(digit, 10);
  EXPECT_EQ(space, 2);  // ' ' and '\t'
  EXPECT_EQ(punct, 94 - 62);  // printable non-alnum
  EXPECT_EQ(other, 256 - 26 - 26 - 10 - 2 - 32);
}

TEST(SimdKernels, LowerAsciiMatchesScalarTwin) {
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const std::vector<char> src = PatternBytes(offset + len, len * 3 + 1);
      std::vector<char> expect(len), got(len);
      simd::scalar::LowerAscii(src.data() + offset, expect.data(), len);
      // Scalar twin == the char-at-a-time definition.
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(expect[i], ToLowerAsciiChar(src[offset + i]))
            << "len " << len << " pos " << i;
      }
      if (CpuHasAvx2()) {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
        simd::avx2::LowerAscii(src.data() + offset, got.data(), len);
        ASSERT_EQ(got, expect) << "avx2 disjoint len " << len << " offset "
                               << offset;
        // In-place form (src == dst), the ToLowerAsciiInPlace path.
        std::vector<char> inplace(src);
        simd::avx2::LowerAscii(inplace.data() + offset,
                               inplace.data() + offset, len);
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                               inplace.begin() + offset))
            << "avx2 in-place len " << len << " offset " << offset;
#endif
      }
      simd::LowerAscii(src.data() + offset, got.data(), len);
      ASSERT_EQ(got, expect) << "dispatched len " << len;
    }
  }
}

TEST(SimdKernels, CharsetMaskMatchesScalarTwin) {
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const std::vector<char> src = PatternBytes(offset + len, len * 7 + 3);
      uint32_t expect_mask = 0;
      for (size_t i = 0; i < len; ++i) {
        expect_mask |= simd::CharsetBitOfByteReference(
            static_cast<unsigned char>(src[offset + i]));
      }
      ASSERT_EQ(simd::scalar::CharsetMask(src.data() + offset, len),
                expect_mask)
          << "scalar len " << len << " offset " << offset;
      if (CpuHasAvx2()) {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
        ASSERT_EQ(simd::avx2::CharsetMask(src.data() + offset, len),
                  expect_mask)
            << "avx2 len " << len << " offset " << offset;
#endif
      }
      ASSERT_EQ(simd::CharsetMask(src.data() + offset, len), expect_mask);
    }
  }
}

TEST(SimdKernels, CharsetMaskSingleClassRuns) {
  // Uniform-class buffers (the early-exit path cannot trigger) and every
  // single byte value as a length-1 string.
  for (int c = 0; c < 256; ++c) {
    const std::string run(67, static_cast<char>(c));
    const uint32_t expect =
        simd::CharsetBitOfByteReference(static_cast<unsigned char>(c));
    EXPECT_EQ(simd::scalar::CharsetMask(run.data(), run.size()), expect);
    EXPECT_EQ(simd::scalar::CharsetMask(run.data(), 1), expect);
    if (CpuHasAvx2()) {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
      EXPECT_EQ(simd::avx2::CharsetMask(run.data(), run.size()), expect)
          << "byte " << c;
#endif
    }
  }
}

TEST(SimdKernels, CountEqualU64MatchesScalarTwin) {
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      std::vector<uint64_t> a = PatternWords(offset + len, 17);
      std::vector<uint64_t> b = PatternWords(offset + len, 18);
      // Plant equal positions (every 3rd) and empty-slot sentinels (every
      // 5th), which count as equal like any other value.
      for (size_t i = offset; i < a.size(); i += 3) b[i] = a[i];
      for (size_t i = offset; i < a.size(); i += 5) {
        a[i] = kEmptyMinhashSlot;
        b[i] = kEmptyMinhashSlot;
      }
      size_t expect_eq = 0;
      for (size_t i = 0; i < len; ++i) {
        expect_eq += a[offset + i] == b[offset + i];
      }
      const uint64_t* pa = a.data() + offset;
      const uint64_t* pb = b.data() + offset;
      ASSERT_EQ(simd::scalar::CountEqualU64(pa, pb, len), expect_eq);
      if (CpuHasAvx2()) {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
        ASSERT_EQ(simd::avx2::CountEqualU64(pa, pb, len), expect_eq)
            << "len " << len << " offset " << offset;
#endif
      }
      ASSERT_EQ(simd::CountEqualU64(pa, pb, len), expect_eq);
    }
  }
}

TEST(SimdKernels, MinhashUpdateMatchesScalarTwin) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{5}, size_t{7}, size_t{64}, size_t{128},
                         size_t{130}}) {
    std::vector<uint64_t> seeds(n);
    for (size_t i = 0; i < n; ++i) seeds[i] = HashCombine(42, i);
    std::vector<uint64_t> expect(n, kEmptyMinhashSlot);
    std::vector<uint64_t> got_avx(n, kEmptyMinhashSlot);
    std::vector<uint64_t> got_dispatch(n, kEmptyMinhashSlot);
    for (uint64_t round = 0; round < 50; ++round) {
      const uint64_t base = Mix64(round * 0x9e3779b97f4a7c15ULL + n);
      simd::scalar::MinhashUpdate(base, seeds.data(), expect.data(), n);
      if (CpuHasAvx2()) {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
        simd::avx2::MinhashUpdate(base, seeds.data(), got_avx.data(), n);
#endif
      }
      simd::MinhashUpdate(base, seeds.data(), got_dispatch.data(), n);
    }
    // Scalar twin == the definitional per-slot recurrence.
    std::vector<uint64_t> reference(n, kEmptyMinhashSlot);
    for (uint64_t round = 0; round < 50; ++round) {
      const uint64_t base = Mix64(round * 0x9e3779b97f4a7c15ULL + n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t h = Mix64(base ^ seeds[i]);
        reference[i] = std::min(reference[i], h);
      }
    }
    ASSERT_EQ(expect, reference) << "n " << n;
    if (CpuHasAvx2()) {
      ASSERT_EQ(got_avx, expect) << "n " << n;
    }
    ASSERT_EQ(got_dispatch, expect) << "n " << n;
  }
}

TEST(Dispatch, SetActiveLevelClampsAndReports) {
  ScopedSimdLevel guard;
  EXPECT_EQ(simd::SetActiveLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);
  const SimdLevel best = simd::BestSupportedLevel();
  // Asking for more than the machine (or TJ_FORCE_SCALAR) allows clamps.
  EXPECT_EQ(simd::SetActiveLevel(SimdLevel::kAvx2), best);
  EXPECT_EQ(simd::ActiveLevel(), best);
}

TEST(Dispatch, ForceScalarEnvPinsBestLevel) {
  // Under the TJ_FORCE_SCALAR=1 registration of this suite, dispatch must
  // resolve to scalar no matter what the CPU supports; without it, the
  // active level starts at the best supported one.
  if (std::getenv("TJ_FORCE_SCALAR") != nullptr) {
    EXPECT_EQ(simd::BestSupportedLevel(), SimdLevel::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), SimdLevel::kScalar);
  } else {
    EXPECT_EQ(simd::BestSupportedLevel(), simd::ActiveLevel());
  }
  // The names the bench JSON records as simd_level.
  EXPECT_STREQ(simd::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(StringsLowercase, SimdBackedHelpersMatchCharDefinition) {
  ScopedSimdLevel guard;
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    simd::SetActiveLevel(level);
    std::string all;
    for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
    std::string expect;
    for (char c : all) expect.push_back(ToLowerAsciiChar(c));
    EXPECT_EQ(ToLowerAscii(all), expect);
    std::string in_place = all;
    ToLowerAsciiInPlace(&in_place);
    EXPECT_EQ(in_place, expect);
    std::string appended = "prefix-";
    AppendLowerAscii(all, &appended);
    EXPECT_EQ(appended, "prefix-" + expect);
  }
}

TEST(FnvPin, InlineGramRecurrenceEqualsHashString) {
  // ComputeColumnSignature inlines FNV-1a + Mix64 over the arena bytes
  // instead of calling HashString per gram; the two must agree for every
  // window so sketches are unchanged by the inlining.
  const std::string text = "Fnv pin: The quick brown fox 0123456789!";
  for (size_t gram = 1; gram <= 8; ++gram) {
    for (size_t i = 0; i + gram <= text.size(); ++i) {
      uint64_t h = kFnvOffsetBasis;
      for (size_t j = 0; j < gram; ++j) {
        h ^= static_cast<unsigned char>(text[i + j]);
        h *= kFnvPrime;
      }
      EXPECT_EQ(Mix64(h), HashString(text.substr(i, gram)))
          << "gram " << gram << " at " << i;
    }
  }
}

/// Reference sketch built from first principles: ForEachNgram + HashString
/// + the per-slot min recurrence — no simd kernels, no inlined FNV.
ColumnSignature ReferenceSignature(const Column& column) {
  ColumnSignature sig;
  sig.num_rows = static_cast<uint32_t>(column.size());
  sig.minhash.assign(kSketchSlots, kEmptyMinhashSlot);
  std::vector<uint64_t> slot_seeds(kSketchSlots);
  for (size_t i = 0; i < kSketchSlots; ++i) {
    slot_seeds[i] = HashCombine(kSketchSeed, i);
  }
  std::unordered_set<uint64_t> distinct;
  uint64_t total_length = 0;
  sig.min_length = column.empty() ? 0 : ~0u;
  for (size_t row = 0; row < column.size(); ++row) {
    std::string text(column.Get(row));
    for (char& c : text) c = ToLowerAsciiChar(c);
    const auto length = static_cast<uint32_t>(text.size());
    total_length += length;
    sig.min_length = std::min(sig.min_length, length);
    sig.max_length = std::max(sig.max_length, length);
    for (char c : text) {
      sig.charset_mask |= simd::CharsetBitOfByteReference(
          static_cast<unsigned char>(c));
    }
    ForEachNgram(text, kSketchNgram, [&](std::string_view g) {
      const uint64_t base = HashString(g);
      if (!distinct.insert(base).second) return;
      for (size_t i = 0; i < slot_seeds.size(); ++i) {
        sig.minhash[i] = std::min(sig.minhash[i], Mix64(base ^ slot_seeds[i]));
      }
    });
  }
  sig.distinct_ngrams = distinct.size();
  if (!column.empty()) {
    sig.mean_length = static_cast<double>(total_length) /
                      static_cast<double>(column.size());
  }
  return sig;
}

TEST(SignaturePin, ComputeColumnSignatureMatchesReferenceAtBothLevels) {
  ScopedSimdLevel guard;
  Column column("c");
  column.Append("New York City");
  column.Append("SAN FRANCISCO\t(CA)");
  column.Append("  ");
  column.Append("x");  // shorter than the gram size
  column.Append("");
  column.Append("répülőtér \xff\x01 control");  // non-ASCII + control bytes
  column.Append("1600 Pennsylvania Ave NW, Washington, DC 20500");
  const ColumnSignature reference = ReferenceSignature(column);
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    simd::SetActiveLevel(level);
    EXPECT_TRUE(ComputeColumnSignature(column) == reference)
        << simd::SimdLevelName(simd::ActiveLevel());
  }
}

void ExpectIdenticalDiscovery(const CorpusDiscoveryResult& a,
                              const CorpusDiscoveryResult& b,
                              const std::string& context) {
  EXPECT_EQ(a.total_column_pairs, b.total_column_pairs) << context;
  EXPECT_EQ(a.pruned_pairs, b.pruned_pairs) << context;
  EXPECT_EQ(a.failed_pairs, b.failed_pairs) << context;
  ASSERT_EQ(a.results.size(), b.results.size()) << context;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const CorpusPairResult& x = a.results[i];
    const CorpusPairResult& y = b.results[i];
    EXPECT_TRUE(x.source == y.source && x.target == y.target)
        << context << " pair " << i;
    EXPECT_EQ(x.candidate.score, y.candidate.score) << context << " " << i;
    EXPECT_EQ(x.learning_pairs, y.learning_pairs) << context << " " << i;
    EXPECT_EQ(x.joined_rows, y.joined_rows) << context << " " << i;
    EXPECT_EQ(x.top_coverage, y.top_coverage) << context << " " << i;
    EXPECT_EQ(x.transformations, y.transformations) << context << " " << i;
    EXPECT_EQ(x.error, y.error) << context << " " << i;
  }
}

/// End-to-end: the whole discovery pipeline — sketching, pruning, row
/// matching, transformation discovery, equi-join — must be bit-identical
/// between scalar and best-level dispatch, at every thread count, on heap
/// and on spilled storage. This is the acceptance property of the PR: the
/// kernels change speed, never bytes.
TEST(PipelineIdentity, DiscoveryIdenticalScalarVsBestSimd) {
  ScopedSimdLevel guard;
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 3;
  corpus_options.num_noise_tables = 2;
  corpus_options.rows = 30;
  corpus_options.seed = 21;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);

  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "tj_simd_spill")
          .string();
  std::filesystem::create_directories(spill_dir);

  for (const bool spilled : {false, true}) {
    StorageOptions storage;
    if (spilled) storage.spill_dir = spill_dir;

    // Per (storage, threads): one catalog per level so signatures are
    // recomputed under that level's kernels (a shared catalog would cache
    // the first level's sketches and prove nothing).
    for (const int threads : {1, 2, 4, 8}) {
      CorpusDiscoveryResult per_level[2];
      ColumnSignature first_signature[2];
      int level_count = 0;
      for (const SimdLevel level :
           {SimdLevel::kScalar, simd::BestSupportedLevel()}) {
        simd::SetActiveLevel(level);
        TableCatalog catalog(storage);
        for (const Table& table : corpus.tables) {
          ASSERT_TRUE(catalog.AddTable(table).ok());
        }
        CorpusDiscoveryOptions options;
        options.num_threads = threads;
        per_level[level_count] = DiscoverJoinableColumns(&catalog, options);
        const std::vector<ColumnRef> columns = catalog.AllColumns();
        ASSERT_FALSE(columns.empty());
        first_signature[level_count] = catalog.signature(columns.front());
        ++level_count;
      }
      const std::string context =
          std::string(spilled ? "spilled" : "heap") + " threads=" +
          std::to_string(threads);
      EXPECT_TRUE(first_signature[0] == first_signature[1]) << context;
      ASSERT_FALSE(per_level[0].results.empty()) << context;
      ExpectIdenticalDiscovery(per_level[0], per_level[1], context);
    }
  }
}

}  // namespace
}  // namespace tj
