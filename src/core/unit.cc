#include "core/unit.h"

#include "common/strings.h"
#include "text/tokenizer.h"

namespace tj {

Unit Unit::MakeLiteral(std::string str) {
  Unit u;
  u.kind = UnitKind::kLiteral;
  u.literal = std::move(str);
  return u;
}

Unit Unit::MakeSubstr(int32_t s, int32_t e) {
  Unit u;
  u.kind = UnitKind::kSubstr;
  u.start = s;
  u.end = e;
  return u;
}

Unit Unit::MakeSplit(char c, int32_t i) {
  Unit u;
  u.kind = UnitKind::kSplit;
  u.c1 = c;
  u.index = i;
  return u;
}

Unit Unit::MakeSplitSubstr(char c, int32_t i, int32_t s, int32_t e) {
  Unit u;
  u.kind = UnitKind::kSplitSubstr;
  u.c1 = c;
  u.index = i;
  u.start = s;
  u.end = e;
  return u;
}

Unit Unit::MakeTwoCharSplitSubstr(char c1, char c2, int32_t i, int32_t s,
                                  int32_t e) {
  Unit u;
  u.kind = UnitKind::kTwoCharSplitSubstr;
  u.c1 = c1;
  u.c2 = c2;
  u.index = i;
  u.start = s;
  u.end = e;
  return u;
}

std::optional<std::string_view> Unit::Eval(std::string_view input) const {
  switch (kind) {
    case UnitKind::kLiteral:
      return std::string_view(literal);
    case UnitKind::kSubstr:
      return SliceOrFail(input, start, end);
    case UnitKind::kSplit:
      return NthSplitPiece(input, c1, index);
    case UnitKind::kSplitSubstr: {
      auto piece = NthSplitPiece(input, c1, index);
      if (!piece.has_value()) return std::nullopt;
      return SliceOrFail(*piece, start, end);
    }
    case UnitKind::kTwoCharSplitSubstr: {
      if (index < 0) return std::nullopt;
      int32_t seen = 0;
      for (const BoundedToken& tok : TokenizeOnTwoChars(input, c1, c2)) {
        if (tok.prev != c1 || tok.next != c2) continue;
        if (seen == index) return SliceOrFail(tok.text, start, end);
        ++seen;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::string Unit::ToString() const {
  switch (kind) {
    case UnitKind::kLiteral:
      return StrPrintf("Literal('%s')", EscapeForDisplay(literal).c_str());
    case UnitKind::kSubstr:
      return StrPrintf("Substr(%d,%d)", start, end);
    case UnitKind::kSplit:
      return StrPrintf("Split('%s',%d)",
                       EscapeForDisplay(std::string_view(&c1, 1)).c_str(),
                       index);
    case UnitKind::kSplitSubstr:
      return StrPrintf("SplitSubstr('%s',%d,%d,%d)",
                       EscapeForDisplay(std::string_view(&c1, 1)).c_str(),
                       index, start, end);
    case UnitKind::kTwoCharSplitSubstr:
      return StrPrintf("TwoCharSplitSubstr('%s','%s',%d,%d,%d)",
                       EscapeForDisplay(std::string_view(&c1, 1)).c_str(),
                       EscapeForDisplay(std::string_view(&c2, 1)).c_str(),
                       index, start, end);
  }
  return "Unknown";
}

}  // namespace tj
