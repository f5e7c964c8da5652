#include "core/unit_extraction.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"
#include "text/char_class.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

/// Count of occurrences of c in s[0, pos).
int32_t CountCharBefore(std::string_view s, char c, size_t pos) {
  int32_t n = 0;
  for (size_t i = 0; i < pos; ++i) {
    if (s[i] == c) ++n;
  }
  return n;
}

/// Index of the last occurrence of c strictly before pos, or npos.
size_t PrevCharPos(std::string_view s, char c, size_t pos) {
  for (size_t i = pos; i-- > 0;) {
    if (s[i] == c) return i;
  }
  return std::string_view::npos;
}

/// Index of the first occurrence of c at >= from, or npos.
size_t NextCharPos(std::string_view s, char c, size_t from) {
  return s.find(c, from);
}

/// Candidate split characters for a placeholder: characters adjacent to the
/// occurrences first (the paper's Split anchors), then distinct separator
/// characters (space/punctuation — how real formats delimit fields), then
/// remaining distinct characters; all excluding characters of the
/// placeholder text, capped at `cap`.
std::vector<char> SplitCharCandidates(std::string_view s,
                                      std::string_view exclude,
                                      const std::vector<uint32_t>& positions,
                                      size_t len, size_t cap) {
  std::vector<char> out;
  bool taken[256] = {false};
  for (char c : exclude) taken[static_cast<unsigned char>(c)] = true;
  auto add = [&](char c) {
    auto& flag = taken[static_cast<unsigned char>(c)];
    if (flag || out.size() >= cap) return;
    flag = true;
    out.push_back(c);
  };
  for (uint32_t pos : positions) {
    if (pos > 0) add(s[pos - 1]);
    if (pos + len < s.size()) add(s[pos + len]);
  }
  for (char c : s) {
    if (IsSeparatorChar(c)) add(c);
  }
  for (char c : s) add(c);
  return out;
}

/// Distinct characters scanning outward from an occurrence boundary:
/// leftward from `from` (exclusive) when dir < 0, rightward from `from`
/// (inclusive) when dir > 0. Excludes placeholder characters; capped.
std::vector<char> NearbyDistinctChars(std::string_view s, size_t from, int dir,
                                      std::string_view exclude, size_t cap) {
  std::vector<char> out;
  bool seen[256] = {false};
  for (char c : exclude) seen[static_cast<unsigned char>(c)] = true;
  if (dir < 0) {
    for (size_t i = from; i-- > 0;) {
      auto& flag = seen[static_cast<unsigned char>(s[i])];
      if (!flag) {
        flag = true;
        out.push_back(s[i]);
        if (out.size() >= cap) break;
      }
    }
  } else {
    for (size_t i = from; i < s.size(); ++i) {
      auto& flag = seen[static_cast<unsigned char>(s[i])];
      if (!flag) {
        flag = true;
        out.push_back(s[i]);
        if (out.size() >= cap) break;
      }
    }
  }
  return out;
}

}  // namespace

void ExtractUnitsForPlaceholder(std::string_view source,
                                std::string_view target,
                                const SkeletonBlock& block,
                                const DiscoveryOptions& options,
                                UnitInterner* interner,
                                std::vector<UnitId>* out) {
  TJ_CHECK(block.is_placeholder);
  const std::string_view text =
      target.substr(block.begin, block.end - block.begin);
  const size_t len = text.size();
  TJ_CHECK(len > 0);

  std::unordered_set<UnitId> emitted;
  auto emit = [&](Unit unit) {
    if (out->size() >= options.max_units_per_placeholder) return;
    TJ_DCHECK(unit.Eval(source).value_or("\x01") == text);
    const UnitId id = interner->Intern(unit);
    if (emitted.insert(id).second) out->push_back(id);
  };

  const std::vector<char> split_chars = SplitCharCandidates(
      source, text, block.src_positions, len, kMaxSplitChars);

  for (uint32_t pos : block.src_positions) {
    // (1) Substr anchored at the occurrence.
    emit(Unit::MakeSubstr(static_cast<int32_t>(pos),
                          static_cast<int32_t>(pos + len)));

    // (2)+(3) Split / SplitSubstr per distinct delimiter character. Because
    // c does not occur in the placeholder text, the occurrence lies entirely
    // inside one split piece.
    for (char c : split_chars) {
      const size_t prev = PrevCharPos(source, c, pos);
      const size_t piece_begin =
          (prev == std::string_view::npos) ? 0 : prev + 1;
      const size_t next = NextCharPos(source, c, pos);
      const size_t piece_end =
          (next == std::string_view::npos) ? source.size() : next;
      TJ_DCHECK(piece_begin <= pos && pos + len <= piece_end);
      const int32_t piece_index = CountCharBefore(source, c, pos);
      const auto s = static_cast<int32_t>(pos - piece_begin);
      if (s == 0 && piece_end == pos + len) {
        // The occurrence is exactly the piece: plain Split.
        emit(Unit::MakeSplit(c, piece_index));
      } else {
        emit(Unit::MakeSplitSubstr(c, piece_index, s,
                                   s + static_cast<int32_t>(len)));
      }
    }

    // (4) TwoCharSplitSubstr for nearby delimiter pairs.
    if (options.enable_twochar_split_substr) {
      const std::vector<char> left = NearbyDistinctChars(
          source, pos, -1, text, kMaxTwoCharNeighbors);
      const std::vector<char> right = NearbyDistinctChars(
          source, pos + len, +1, text, kMaxTwoCharNeighbors);
      for (char c1 : left) {
        for (char c2 : right) {
          if (c1 == c2) continue;
          // The nearest delimiter from {c1,c2} before the occurrence must be
          // c1, and the nearest at/after its end must be c2.
          const size_t p1 = PrevCharPos(source, c1, pos);
          const size_t p2 = PrevCharPos(source, c2, pos);
          if (p1 == std::string_view::npos) continue;
          if (p2 != std::string_view::npos && p2 > p1) continue;
          const size_t n1 = NextCharPos(source, c1, pos + len);
          const size_t n2 = NextCharPos(source, c2, pos + len);
          if (n2 == std::string_view::npos) continue;
          if (n1 != std::string_view::npos && n1 < n2) continue;
          // Token bounded by c1 at p1 and c2 at n2; compute its index among
          // qualifying tokens.
          int32_t token_index = 0;
          {
            char prev_delim = 0;
            size_t token_begin = 0;
            for (size_t i = 0; i < p1; ++i) {
              if (source[i] == c1 || source[i] == c2) {
                // Token [token_begin, i) qualifies if bounded by c1 .. c2.
                if (prev_delim == c1 && source[i] == c2) ++token_index;
                prev_delim = source[i];
                token_begin = i + 1;
              }
            }
            (void)token_begin;
          }
          const auto s = static_cast<int32_t>(pos - (p1 + 1));
          emit(Unit::MakeTwoCharSplitSubstr(c1, c2, token_index, s,
                                            s + static_cast<int32_t>(len)));
        }
      }
    }
  }

  // (5) A literal that happens to match the source (§4.1.4).
  emit(Unit::MakeLiteral(std::string(text)));
}

}  // namespace tj
