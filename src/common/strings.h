// Small string helpers shared across the library (ASCII-only by design; the
// paper's transformation units operate on bytes).

#ifndef TJ_COMMON_STRINGS_H_
#define TJ_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/status.h"

namespace tj {

/// Lowercases one ASCII letter; other bytes pass through. The single shared
/// definition of "lowercase" used by the n-gram index, the row matcher, and
/// the corpus sketches — they must agree byte-for-byte or cached sketches
/// and index lookups diverge.
inline char ToLowerAsciiChar(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Lowercases ASCII letters; other bytes pass through.
std::string ToLowerAscii(std::string_view s);

/// In-place variant over a raw byte range.
void ToLowerAsciiInPlace(char* data, size_t size);
inline void ToLowerAsciiInPlace(std::string* s) {
  ToLowerAsciiInPlace(s->data(), s->size());
}

/// Appends the lowercased bytes of `s` to `*out` without an intermediate
/// allocation; with a reused `out` buffer this is the allocation-free way to
/// lowercase one row at a time.
void AppendLowerAscii(std::string_view s, std::string* out);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// printf-style formatting into a std::string (gcc 12 lacks std::format).
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a string for display, escaping non-printable bytes and quotes
/// (used when pretty-printing transformations and literals).
std::string EscapeForDisplay(std::string_view s);

/// Decodes a single-quoted EscapeForDisplay rendering ('...' with \n, \t,
/// \r, \', \\ and \xNN, exactly two hex digits) that starts at
/// text[*pos]; on success *pos moves past the closing quote. The one reader
/// of that quoting, shared by the rule-file and signature-cache parsers.
Result<std::string> ParseQuotedDisplay(std::string_view text, size_t* pos);

/// Parses a byte-size spec: a non-negative integer with an optional k/m/g
/// suffix (case-insensitive, powers of 1024; "64m" = 64 MiB). Returns false
/// on malformed input or overflow. Used by the --memory-budget CLI flags.
bool ParseByteSize(std::string_view s, size_t* out);

/// Parses all of `s` as one decimal number of type T (integral or floating
/// point). std::from_chars takes no leading whitespace or '+', and no sign
/// at all for unsigned types, so "-1" is rejected instead of wrapping into
/// a huge count. Returns false on malformed, partial or out-of-range input.
/// Used by the CLIs' numeric flags.
template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// True if `needle` occurs in `haystack` (convenience over find()).
inline bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

}  // namespace tj

#endif  // TJ_COMMON_STRINGS_H_
