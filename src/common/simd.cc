#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#include "common/hash.h"

#if defined(TJ_SIMD_HAS_AVX2_BUILD)
#include <immintrin.h>
#endif

namespace tj {
namespace simd {

// ---------------------------------------------------------------------------
// Charset classification.
// ---------------------------------------------------------------------------

namespace {

constexpr std::array<uint32_t, 256> MakeCharsetLut() {
  std::array<uint32_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[static_cast<size_t>(c)] =
        CharsetBitOfByteReference(static_cast<unsigned char>(c));
  }
  return table;
}

}  // namespace

const std::array<uint32_t, 256> kCharsetLut = MakeCharsetLut();

// ---------------------------------------------------------------------------
// Scalar twins.
// ---------------------------------------------------------------------------

namespace scalar {

void MinhashUpdate(uint64_t base, const uint64_t* slot_seeds,
                   uint64_t* minhash, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = Mix64(base ^ slot_seeds[i]);
    if (h < minhash[i]) minhash[i] = h;
  }
}

void LowerAscii(const char* src, char* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const char c = src[i];
    dst[i] = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
}

size_t CountEqualU64(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) ++matches;
  }
  return matches;
}

uint32_t CharsetMask(const char* s, size_t n) {
  constexpr uint32_t kAllBits =
      kCharsetLowerBit | kCharsetUpperBit | kCharsetDigitBit |
      kCharsetSpaceBit | kCharsetPunctBit | kCharsetOtherBit;
  uint32_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    mask |= kCharsetLut[static_cast<unsigned char>(s[i])];
    if (mask == kAllBits) break;  // every class already seen
  }
  return mask;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 twins. Compiled with a function-level target attribute so the rest
// of the build stays baseline-ISA; only callable after the CPUID probe.
// ---------------------------------------------------------------------------

#if defined(TJ_SIMD_HAS_AVX2_BUILD)
namespace avx2 {
namespace {

/// 64-bit lane-wise multiply (AVX2 has no _mm256_mullo_epi64; that is
/// AVX-512DQ): lo*lo + ((lo*hi + hi*lo) << 32).
__attribute__((target("avx2"))) inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

/// Mix64 (common/hash.h) over 4 lanes — the same constants and shift
/// schedule, so every lane equals the scalar Mix64 of its input.
__attribute__((target("avx2"))) inline __m256i Mix64x4(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15LL));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// Unsigned 64-bit a < b per lane (sign-flip + signed compare).
__attribute__((target("avx2"))) inline __m256i LtU64(__m256i a, __m256i b) {
  const __m256i sign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign),
                            _mm256_xor_si256(a, sign));
}

}  // namespace

__attribute__((target("avx2"))) void MinhashUpdate(uint64_t base,
                                                   const uint64_t* slot_seeds,
                                                   uint64_t* minhash,
                                                   size_t n) {
  const __m256i base4 = _mm256_set1_epi64x(static_cast<long long>(base));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i seeds = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(slot_seeds + i));
    const __m256i h = Mix64x4(_mm256_xor_si256(base4, seeds));
    const __m256i current = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(minhash + i));
    // min(current, h) unsigned: keep h where h < current.
    const __m256i take = LtU64(h, current);
    const __m256i next = _mm256_blendv_epi8(current, h, take);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(minhash + i), next);
  }
  scalar::MinhashUpdate(base, slot_seeds + i, minhash + i, n - i);
}

__attribute__((target("avx2"))) void LowerAscii(const char* src, char* dst,
                                                size_t n) {
  // Signed byte compares are safe here: 'A'..'Z' are positive, and bytes
  // >= 0x80 (negative as signed) fail cmpgt(v, 'A'-1), so they pass
  // through untouched — exactly ToLowerAsciiChar's behavior.
  const __m256i lo_bound = _mm256_set1_epi8('A' - 1);
  const __m256i hi_bound = _mm256_set1_epi8('Z' + 1);
  const __m256i case_bit = _mm256_set1_epi8(0x20);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i is_upper =
        _mm256_and_si256(_mm256_cmpgt_epi8(v, lo_bound),
                         _mm256_cmpgt_epi8(hi_bound, v));
    const __m256i lowered =
        _mm256_add_epi8(v, _mm256_and_si256(is_upper, case_bit));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), lowered);
  }
  scalar::LowerAscii(src + i, dst + i, n - i);
}

__attribute__((target("avx2"))) size_t CountEqualU64(const uint64_t* a,
                                                     const uint64_t* b,
                                                     size_t n) {
  size_t matches = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i eq = _mm256_cmpeq_epi64(va, vb);
    matches += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)))));
  }
  return matches + scalar::CountEqualU64(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) uint32_t CharsetMask(const char* s,
                                                     size_t n) {
  constexpr uint32_t kAllBits =
      kCharsetLowerBit | kCharsetUpperBit | kCharsetDigitBit |
      kCharsetSpaceBit | kCharsetPunctBit | kCharsetOtherBit;
  // Signed compares: every range bound below is positive ASCII, and bytes
  // >= 0x80 compare as negative, failing every cmpgt(v, bound) — which
  // lands them in the "other" class, matching the reference.
  const __m256i below_a = _mm256_set1_epi8('a' - 1);
  const __m256i above_z = _mm256_set1_epi8('z' + 1);
  const __m256i below_ua = _mm256_set1_epi8('A' - 1);
  const __m256i above_uz = _mm256_set1_epi8('Z' + 1);
  const __m256i below_0 = _mm256_set1_epi8('0' - 1);
  const __m256i above_9 = _mm256_set1_epi8('9' + 1);
  const __m256i space = _mm256_set1_epi8(' ');
  const __m256i tab = _mm256_set1_epi8('\t');
  const __m256i printable_lo = _mm256_set1_epi8(' ');       // c > ' '
  const __m256i printable_hi = _mm256_set1_epi8(0x7f);      // c < 0x7f

  uint32_t mask = 0;
  size_t i = 0;
  for (; i + 32 <= n && mask != kAllBits; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
    const __m256i lower = _mm256_and_si256(_mm256_cmpgt_epi8(v, below_a),
                                           _mm256_cmpgt_epi8(above_z, v));
    const __m256i upper = _mm256_and_si256(_mm256_cmpgt_epi8(v, below_ua),
                                           _mm256_cmpgt_epi8(above_uz, v));
    const __m256i digit = _mm256_and_si256(_mm256_cmpgt_epi8(v, below_0),
                                           _mm256_cmpgt_epi8(above_9, v));
    const __m256i is_space = _mm256_or_si256(_mm256_cmpeq_epi8(v, space),
                                             _mm256_cmpeq_epi8(v, tab));
    const __m256i alnum =
        _mm256_or_si256(_mm256_or_si256(lower, upper), digit);
    const __m256i printable =
        _mm256_and_si256(_mm256_cmpgt_epi8(v, printable_lo),
                         _mm256_cmpgt_epi8(printable_hi, v));
    const __m256i punct = _mm256_andnot_si256(alnum, printable);
    const __m256i any =
        _mm256_or_si256(_mm256_or_si256(alnum, is_space), punct);
    if (_mm256_movemask_epi8(lower) != 0) mask |= kCharsetLowerBit;
    if (_mm256_movemask_epi8(upper) != 0) mask |= kCharsetUpperBit;
    if (_mm256_movemask_epi8(digit) != 0) mask |= kCharsetDigitBit;
    if (_mm256_movemask_epi8(is_space) != 0) mask |= kCharsetSpaceBit;
    if (_mm256_movemask_epi8(punct) != 0) mask |= kCharsetPunctBit;
    if (static_cast<unsigned>(_mm256_movemask_epi8(any)) != 0xffffffffu) {
      mask |= kCharsetOtherBit;
    }
  }
  if (mask != kAllBits) mask |= scalar::CharsetMask(s + i, n - i);
  return mask;
}

}  // namespace avx2
#endif  // TJ_SIMD_HAS_AVX2_BUILD

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

namespace {

struct Ops {
  SimdLevel level;
  void (*minhash_update)(uint64_t, const uint64_t*, uint64_t*, size_t);
  void (*lower_ascii)(const char*, char*, size_t);
  size_t (*count_equal_u64)(const uint64_t*, const uint64_t*, size_t);
  uint32_t (*charset_mask)(const char*, size_t);
};

constexpr Ops kScalarOps = {
    SimdLevel::kScalar,  &scalar::MinhashUpdate,
    &scalar::LowerAscii, &scalar::CountEqualU64,
    &scalar::CharsetMask,
};

#if defined(TJ_SIMD_HAS_AVX2_BUILD)
constexpr Ops kAvx2Ops = {
    SimdLevel::kAvx2,  &avx2::MinhashUpdate,
    &avx2::LowerAscii, &avx2::CountEqualU64,
    &avx2::CharsetMask,
};
#endif

const Ops* OpsFor(SimdLevel level) {
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
  if (level == SimdLevel::kAvx2) return &kAvx2Ops;
#else
  (void)level;
#endif
  return &kScalarOps;
}

/// Relaxed is enough: kernels are pure and the pointer swap itself is the
/// only shared state; callers that switch levels mid-run synchronize
/// externally (the test harness does so by construction).
std::atomic<const Ops*> g_active_ops{nullptr};

const Ops* ActiveOps() {
  const Ops* ops = g_active_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    ops = OpsFor(BestSupportedLevel());
    const Ops* expected = nullptr;
    if (!g_active_ops.compare_exchange_strong(expected, ops,
                                              std::memory_order_acq_rel)) {
      ops = expected;
    }
  }
  return ops;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel BestSupportedLevel() {
  static const SimdLevel best = [] {
    if (std::getenv("TJ_FORCE_SCALAR") != nullptr) return SimdLevel::kScalar;
#if defined(TJ_SIMD_HAS_AVX2_BUILD)
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return best;
}

SimdLevel ActiveLevel() { return ActiveOps()->level; }

SimdLevel SetActiveLevel(SimdLevel level) {
  if (static_cast<int>(level) > static_cast<int>(BestSupportedLevel())) {
    level = BestSupportedLevel();
  }
  const Ops* ops = OpsFor(level);
  g_active_ops.store(ops, std::memory_order_release);
  return ops->level;
}

void MinhashUpdate(uint64_t base, const uint64_t* slot_seeds,
                   uint64_t* minhash, size_t n) {
  ActiveOps()->minhash_update(base, slot_seeds, minhash, n);
}

void LowerAscii(const char* src, char* dst, size_t n) {
  ActiveOps()->lower_ascii(src, dst, n);
}

size_t CountEqualU64(const uint64_t* a, const uint64_t* b, size_t n) {
  return ActiveOps()->count_equal_u64(a, b, n);
}

uint32_t CharsetMask(const char* s, size_t n) {
  return ActiveOps()->charset_mask(s, n);
}

}  // namespace simd
}  // namespace tj
