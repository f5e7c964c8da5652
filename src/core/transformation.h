// Transformation (paper §2, Definition 2): a sequence of transformation
// units; applying it concatenates each unit's output on the same input.

#ifndef TJ_CORE_TRANSFORMATION_H_
#define TJ_CORE_TRANSFORMATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/unit_interner.h"

namespace tj {

/// An immutable sequence of interned units. Construct via Normalized() so
/// adjacent literal units are merged, which keeps structurally identical
/// transformations equal for dedup.
class Transformation {
 public:
  Transformation() = default;
  explicit Transformation(std::vector<UnitId> units)
      : units_(std::move(units)) {}

  /// Builds a transformation with adjacent Literal units fused into one
  /// (<L'.', L' '> becomes <L'. '>). Runs of two or more literals intern
  /// their fused text, left to right; a lone literal keeps its id.
  static Transformation Normalized(const std::vector<UnitId>& units,
                                   UnitInterner* interner);

  const std::vector<UnitId>& units() const { return units_; }
  size_t size() const { return units_.size(); }
  bool empty() const { return units_.empty(); }

  /// Applies every unit to `source` and concatenates the outputs; nullopt if
  /// any unit fails.
  std::optional<std::string> Apply(std::string_view source,
                                   const UnitInterner& interner) const;

  /// True iff Apply(source) == target, computed as a streaming prefix match
  /// without allocating the output.
  bool Covers(std::string_view source, std::string_view target,
              const UnitInterner& interner) const;

  /// Number of non-constant units — the transformation "length" used by the
  /// paper's fitness discussion (§4.1.2).
  size_t NumPlaceholderUnits(const UnitInterner& interner) const;

  /// `<Substr(0,7), Literal('. '), Substr(14,21)>`
  std::string ToString(const UnitInterner& interner) const;

  uint64_t Hash() const;

  bool operator==(const Transformation& other) const {
    return units_ == other.units_;
  }

 private:
  std::vector<UnitId> units_;
};

}  // namespace tj

#endif  // TJ_CORE_TRANSFORMATION_H_
