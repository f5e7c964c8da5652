// Character classification used by placeholder tokenization and the synthetic
// generators. The paper (§4.1.3) breaks maximal-length placeholders at
// "common split characters in the natural language, such as punctuations and
// spaces"; IsSeparatorChar defines exactly that set.

#ifndef TJ_TEXT_CHAR_CLASS_H_
#define TJ_TEXT_CHAR_CLASS_H_

namespace tj {

/// ASCII space characters (space and tab; row values never contain newlines).
constexpr bool IsSpaceChar(char c) { return c == ' ' || c == '\t'; }

constexpr bool IsDigitChar(char c) { return c >= '0' && c <= '9'; }

constexpr bool IsAlphaChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

constexpr bool IsAlnumChar(char c) { return IsDigitChar(c) || IsAlphaChar(c); }

/// ASCII punctuation (anything printable that is neither alphanumeric nor a
/// space).
constexpr bool IsPunctChar(char c) {
  return c > ' ' && c < 0x7f && !IsAlnumChar(c);
}

/// The separator set used to tokenize maximal-length placeholders (paper
/// §4.1.3): spaces and punctuation.
constexpr bool IsSeparatorChar(char c) {
  return IsSpaceChar(c) || IsPunctChar(c);
}

}  // namespace tj

#endif  // TJ_TEXT_CHAR_CLASS_H_
