// Transformation units (paper §2, Definition 1): the basic string functions
// composed into transformations. Each unit copies either a part of its input
// or a constant literal to the output.
//
// Index conventions (DESIGN.md §2): all positions are 0-based; substring
// ranges are half-open [start, end); split piece indices are 0-based and
// empty pieces are kept. A unit *fails* (Eval returns nullopt) when an index
// is out of range.

#ifndef TJ_CORE_UNIT_H_
#define TJ_CORE_UNIT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/hash.h"

namespace tj {

enum class UnitKind : uint8_t {
  kLiteral = 0,            // Literal(str)
  kSubstr = 1,             // Substr(s, e)
  kSplit = 2,              // Split(c, i)
  kSplitSubstr = 3,        // SplitSubstr(c, i, s, e)
  kTwoCharSplitSubstr = 4  // TwoCharSplitSubstr(c1, c2, i, s, e)
};

/// A value-semantic transformation unit. Construct through the factory
/// functions; compare/hash for deduplication; Eval to apply.
struct Unit {
  UnitKind kind = UnitKind::kLiteral;
  char c1 = 0;        // split delimiter (Split/SplitSubstr/TwoChar...)
  char c2 = 0;        // second delimiter (TwoCharSplitSubstr)
  int32_t index = 0;  // 0-based split piece index
  int32_t start = 0;  // substring start (inclusive)
  int32_t end = 0;    // substring end (exclusive)
  std::string literal;

  /// Literal(str): emits `str` irrespective of the input.
  static Unit MakeLiteral(std::string str);

  /// Substr(s, e): input[s, e), failing if the range exceeds the input.
  static Unit MakeSubstr(int32_t s, int32_t e);

  /// Split(c, i): the i-th piece after splitting the input on `c`.
  static Unit MakeSplit(char c, int32_t i);

  /// SplitSubstr(c, i, s, e): Substr(s, e) of Split(c, i).
  static Unit MakeSplitSubstr(char c, int32_t i, int32_t s, int32_t e);

  /// TwoCharSplitSubstr(c1, c2, i, s, e): the i-th maximal delimiter-free run
  /// bounded by c1 on the left and c2 on the right, then Substr(s, e) of it.
  static Unit MakeTwoCharSplitSubstr(char c1, char c2, int32_t i, int32_t s,
                                     int32_t e);

  /// True for units whose output ignores the input (Definition 4 excludes
  /// these from placeholder generation).
  bool IsConstant() const { return kind == UnitKind::kLiteral; }

  /// Applies the unit. The returned view aliases either `input` or this
  /// unit's `literal` and is valid while both outlive the caller's use.
  /// nullopt when the unit does not apply (out-of-range index, missing
  /// delimiter piece, range beyond the piece).
  std::optional<std::string_view> Eval(std::string_view input) const;

  /// Pretty form, e.g. `Substr(0,7)`, `Literal('. ')`, `Split(',',0)`.
  std::string ToString() const;

  bool operator==(const Unit& other) const {
    return kind == other.kind && c1 == other.c1 && c2 == other.c2 &&
           index == other.index && start == other.start && end == other.end &&
           literal == other.literal;
  }

  uint64_t Hash() const {
    uint64_t h = Mix64(static_cast<uint64_t>(kind));
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c1)));
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint8_t>(c2)));
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(index)));
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(start)));
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(end)));
    if (kind == UnitKind::kLiteral) h = HashCombine(h, HashString(literal));
    return h;
  }
};

struct UnitHash {
  size_t operator()(const Unit& u) const {
    return static_cast<size_t>(u.Hash());
  }
};

/// The [start, end) slice of `piece`, or nullopt when the range does not
/// fit: what Substr, SplitSubstr and TwoCharSplitSubstr apply to their
/// input or piece.
inline std::optional<std::string_view> SliceOrFail(std::string_view piece,
                                                   int32_t start,
                                                   int32_t end) {
  if (start < 0 || end < start ||
      static_cast<size_t>(end) > piece.size()) {
    return std::nullopt;
  }
  return piece.substr(static_cast<size_t>(start),
                      static_cast<size_t>(end - start));
}

}  // namespace tj

#endif  // TJ_CORE_UNIT_H_
