// Character n-gram extraction for the row-matching inverted index (paper
// §4.2.1): every n-gram of sizes kMinGram..kMaxGram of a row is an index
// key, and the representative n-gram of a row is the one maximizing the
// Rscore.

#ifndef TJ_TEXT_NGRAM_H_
#define TJ_TEXT_NGRAM_H_

#include <cstddef>
#include <string_view>

namespace tj {

/// Representative n-gram sizes [n0, nmax] of Algorithm 1, as the paper
/// tunes them (§6.2). The n-gram index, the row matcher's probe and the
/// corpus sketch (kSketchNgram) all read these, always on ASCII-lowercased
/// rows.
inline constexpr size_t kMinGram = 4;
inline constexpr size_t kMaxGram = 20;

/// Invokes f(std::string_view gram) for every (possibly repeated) n-gram of
/// length n in s, left to right. No-op when n == 0 or n > s.size().
template <typename F>
void ForEachNgram(std::string_view s, size_t n, F f) {
  if (n == 0 || n > s.size()) return;
  for (size_t i = 0; i + n <= s.size(); ++i) {
    f(s.substr(i, n));
  }
}

}  // namespace tj

#endif  // TJ_TEXT_NGRAM_H_
