#include "core/transformation.h"

#include "common/hash.h"

namespace tj {

Transformation Transformation::Normalized(const std::vector<UnitId>& units,
                                          UnitInterner* interner) {
  const auto is_literal = [&](UnitId id) {
    return interner->Get(id).kind == UnitKind::kLiteral;
  };
  std::vector<UnitId> out;
  for (size_t i = 0; i < units.size();) {
    size_t j = i + 1;
    if (is_literal(units[i])) {
      while (j < units.size() && is_literal(units[j])) ++j;
    }
    if (j - i == 1) {
      out.push_back(units[i]);
    } else {
      std::string fused;
      for (size_t k = i; k < j; ++k) fused += interner->Get(units[k]).literal;
      out.push_back(interner->Intern(Unit::MakeLiteral(std::move(fused))));
    }
    i = j;
  }
  return Transformation(std::move(out));
}

std::optional<std::string> Transformation::Apply(
    std::string_view source, const UnitInterner& interner) const {
  std::string out;
  for (UnitId id : units_) {
    auto piece = interner.Get(id).Eval(source);
    if (!piece.has_value()) return std::nullopt;
    out.append(*piece);
  }
  return out;
}

bool Transformation::Covers(std::string_view source, std::string_view target,
                            const UnitInterner& interner) const {
  size_t offset = 0;
  for (UnitId id : units_) {
    auto piece = interner.Get(id).Eval(source);
    if (!piece.has_value()) return false;
    if (piece->size() > target.size() - offset) return false;
    if (target.compare(offset, piece->size(), *piece) != 0) return false;
    offset += piece->size();
  }
  return offset == target.size();
}

size_t Transformation::NumPlaceholderUnits(const UnitInterner& interner) const {
  size_t n = 0;
  for (UnitId id : units_) {
    if (!interner.Get(id).IsConstant()) ++n;
  }
  return n;
}

std::string Transformation::ToString(const UnitInterner& interner) const {
  std::string out = "<";
  for (size_t i = 0; i < units_.size(); ++i) {
    if (i > 0) out += ", ";
    out += interner.Get(units_[i]).ToString();
  }
  out += ">";
  return out;
}

uint64_t Transformation::Hash() const {
  uint64_t h = Mix64(0x7472616e73ULL);  // "trans"
  for (const UnitId unit : units_) h = HashCombine(h, unit);
  return h;
}

}  // namespace tj
