#include "core/serialization.h"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "common/strings.h"

namespace tj {
namespace {

/// Incremental parser over a string_view.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }

  void SkipSpace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// Parses a (possibly negative) decimal integer. A digit run outside
  /// int32_t is an error, never wrapped or clamped.
  Result<int32_t> ParseInt() {
    SkipSpace();
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    int32_t value = 0;
    if (!ParseWhole(text_.substr(start, pos_ - start), &value)) {
      return Status::InvalidArgument("expected a 32-bit integer at offset " +
                                     std::to_string(start));
    }
    return value;
  }

  /// Parses a single-quoted string with EscapeForDisplay escapes.
  Result<std::string> ParseQuoted() {
    SkipSpace();
    return ParseQuotedDisplay(text_, &pos_);
  }

  /// Parses a quoted string that must hold exactly one character.
  Result<char> ParseQuotedChar() {
    TJ_ASSIGN_OR_RETURN(const std::string s, ParseQuoted());
    if (s.size() != 1) {
      return Status::InvalidArgument("expected single-character delimiter");
    }
    return s[0];
  }

  Result<Unit> ParseUnit();

  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Result<Unit> Cursor::ParseUnit() {
  SkipSpace();
  if (ConsumeWord("Literal(")) {
    TJ_ASSIGN_OR_RETURN(std::string str, ParseQuoted());
    if (!Consume(')')) return Status::InvalidArgument("expected ')'");
    return Unit::MakeLiteral(std::move(str));
  }
  // Note: "SplitSubstr(" must be tried before "Split(".
  if (ConsumeWord("SplitSubstr(")) {
    TJ_ASSIGN_OR_RETURN(const char c, ParseQuotedChar());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t i, ParseInt());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t s, ParseInt());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t e, ParseInt());
    if (!Consume(')')) return Status::InvalidArgument("expected ')'");
    return Unit::MakeSplitSubstr(c, i, s, e);
  }
  if (ConsumeWord("Split(")) {
    TJ_ASSIGN_OR_RETURN(const char c, ParseQuotedChar());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t i, ParseInt());
    if (!Consume(')')) return Status::InvalidArgument("expected ')'");
    return Unit::MakeSplit(c, i);
  }
  if (ConsumeWord("Substr(")) {
    TJ_ASSIGN_OR_RETURN(const int32_t s, ParseInt());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t e, ParseInt());
    if (!Consume(')')) return Status::InvalidArgument("expected ')'");
    return Unit::MakeSubstr(s, e);
  }
  if (ConsumeWord("TwoCharSplitSubstr(")) {
    TJ_ASSIGN_OR_RETURN(const char c1, ParseQuotedChar());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const char c2, ParseQuotedChar());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t i, ParseInt());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t s, ParseInt());
    if (!Consume(',')) return Status::InvalidArgument("expected ','");
    TJ_ASSIGN_OR_RETURN(const int32_t e, ParseInt());
    if (!Consume(')')) return Status::InvalidArgument("expected ')'");
    return Unit::MakeTwoCharSplitSubstr(c1, c2, i, s, e);
  }
  return Status::InvalidArgument("unknown unit at offset " +
                                 std::to_string(pos()));
}

}  // namespace

Result<Unit> ParseUnit(std::string_view text) {
  Cursor cursor(text);
  TJ_ASSIGN_OR_RETURN(Unit unit, cursor.ParseUnit());
  cursor.SkipSpace();
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("trailing characters after unit");
  }
  return unit;
}

Result<Transformation> ParseTransformation(std::string_view text,
                                           UnitInterner* interner) {
  Cursor cursor(text);
  cursor.SkipSpace();
  if (!cursor.Consume('<')) {
    return Status::InvalidArgument("transformation must start with '<'");
  }
  std::vector<UnitId> ids;
  cursor.SkipSpace();
  if (!cursor.Consume('>')) {
    for (;;) {
      TJ_ASSIGN_OR_RETURN(const Unit unit, cursor.ParseUnit());
      ids.push_back(interner->Intern(unit));
      cursor.SkipSpace();
      if (cursor.Consume('>')) break;
      if (!cursor.Consume(',')) {
        return Status::InvalidArgument("expected ',' or '>'");
      }
    }
  }
  cursor.SkipSpace();
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("trailing characters after '>'");
  }
  return Transformation(std::move(ids));
}

std::string SerializeTransformations(
    const TransformationStore& store, const UnitInterner& units,
    const std::vector<TransformationId>& ids) {
  std::string out = "# transform-join rule set\n";
  for (TransformationId id : ids) {
    out += store.Get(id).ToString(units);
    out += "\n";
  }
  return out;
}

Result<TransformationSet> ParseTransformationSet(std::string_view text) {
  TransformationSet set;
  std::set<std::vector<UnitId>> seen;  // a repeated rule keeps its first line
  size_t begin = 0;
  size_t line_number = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = TrimAscii(text.substr(begin, end - begin));
    ++line_number;
    begin = end + 1;
    if (line.empty() || line[0] == '#') {
      if (end == text.size()) break;
      continue;
    }
    auto t = ParseTransformation(line, &set.units);
    if (!t.ok()) {
      return Status::InvalidArgument(
          StrPrintf("line %zu: %s", line_number, t.status().message().c_str()));
    }
    if (seen.insert(t->units()).second) {
      set.ids.push_back(set.store.Append(t->units()));
    }
    if (end == text.size()) break;
  }
  return set;
}

Status SaveTransformationsToFile(const std::string& path,
                                 const TransformationStore& store,
                                 const UnitInterner& units,
                                 const std::vector<TransformationId>& ids) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << SerializeTransformations(store, units, ids);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<TransformationSet> LoadTransformationsFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseTransformationSet(buf.str());
}

}  // namespace tj
