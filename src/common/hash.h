// Hashing primitives: 64-bit mixing, combination, and byte hashing.
//
// Used for transformation and unit hashing, the per-row negative-unit caches,
// and the n-gram inverted index. The functions are deterministic across runs
// so experiment output is reproducible.

#ifndef TJ_COMMON_HASH_H_
#define TJ_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tj {

/// Finalizer from SplitMix64; a strong 64-bit bit mixer.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a new value into a running 64-bit hash seed.
constexpr uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

/// FNV-1a parameters, exposed so hot loops that inline the byte hash over
/// a contiguous arena (ComputeColumnSignature's gram scan) provably use
/// the same recurrence as HashBytes — FnvPin in tests/common_test.cc pins
/// them equal.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step: folds `byte` into a running state. From
/// kFnvOffsetBasis, Mix64 of the state after bytes p[0..n) is
/// HashBytes(p, n), so a loop can hash every prefix of a window by
/// extending one state (the row matcher's probe does, per start position).
inline uint64_t FnvStep(uint64_t state, unsigned char byte) {
  return (state ^ byte) * kFnvPrime;
}

/// FNV-1a over raw bytes, finalized with Mix64.
inline uint64_t HashBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = kFnvOffsetBasis;
  for (size_t i = 0; i < n; ++i) h = FnvStep(h, p[i]);
  return Mix64(h);
}

inline uint64_t HashString(std::string_view s) {
  return HashBytes(s.data(), s.size());
}

/// Transparent string hasher for heterogenous unordered_map lookup
/// (std::string keys probed with std::string_view, no temporary allocation).
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(HashString(s));
  }
  size_t operator()(const std::string& s) const {
    return static_cast<size_t>(HashString(s));
  }
  size_t operator()(const char* s) const {
    return static_cast<size_t>(HashString(s));
  }
};

/// Transparent string equality, companion of StringHash.
struct StringEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

}  // namespace tj

#endif  // TJ_COMMON_HASH_H_
