#include "baselines/autojoin.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/options.h"
#include "core/stats.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

/// One row's residual problem: the source and the part of the target still
/// to be produced.
struct SubsetState {
  std::string_view source;
  std::string_view target;
};

/// A candidate unit together with its per-row match spans in the targets.
struct ScoredUnit {
  Unit unit;
  double score = 0.0;  // average covered target length
  std::vector<std::pair<size_t, size_t>> spans;  // [begin, end) per row
};

class AutoJoinSearch {
 public:
  AutoJoinSearch(const AutoJoinOptions& options, UnitInterner* interner,
                 double deadline_seconds)
      : options_(options), interner_(interner), deadline_(deadline_seconds) {}

  bool timed_out() const { return timed_out_; }
  uint64_t units_enumerated() const { return units_enumerated_; }

  /// Finds a single transformation covering all rows of the subset, or
  /// nullopt.
  std::optional<std::vector<UnitId>> Find(
      const std::vector<SubsetState>& states, int depth) {
    if (TimeExpired()) return std::nullopt;
    // Done when every residual target is empty.
    bool all_empty = true;
    for (const auto& s : states) {
      if (!s.target.empty()) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) return std::vector<UnitId>{};
    if (depth <= 0) return std::nullopt;

    std::vector<ScoredUnit> candidates = EnumerateCandidates(states);
    // Sort by covered target length, descending (§3.2); stable deterministic
    // tie-break on enumeration order.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const ScoredUnit& a, const ScoredUnit& b) {
                       return a.score > b.score;
                     });
    const size_t tries = std::min(candidates.size(), options_.backtrack_limit);
    for (size_t k = 0; k < tries; ++k) {
      if (TimeExpired()) return std::nullopt;
      const ScoredUnit& cand = candidates[k];
      std::vector<SubsetState> left(states.size());
      std::vector<SubsetState> right(states.size());
      for (size_t r = 0; r < states.size(); ++r) {
        left[r].source = states[r].source;
        left[r].target = states[r].target.substr(0, cand.spans[r].first);
        right[r].source = states[r].source;
        right[r].target = states[r].target.substr(cand.spans[r].second);
      }
      auto left_units = Find(left, depth - 1);
      if (!left_units.has_value()) continue;
      auto right_units = Find(right, depth - 1);
      if (!right_units.has_value()) continue;
      std::vector<UnitId> out = std::move(*left_units);
      out.push_back(interner_->Intern(cand.unit));
      out.insert(out.end(), right_units->begin(), right_units->end());
      return out;
    }
    return std::nullopt;
  }

 private:
  bool TimeExpired() {
    if (timed_out_) return true;
    // Check the clock periodically to keep the hot loops cheap.
    if ((++clock_checks_ & 0x3ff) == 0 &&
        watch_.ElapsedSeconds() > deadline_) {
      timed_out_ = true;
    }
    return timed_out_;
  }

  /// Evaluates `unit` on all rows; keeps it if its output is non-empty and
  /// occurs in every residual target (first occurrence is the match span).
  void Consider(const Unit& unit, const std::vector<SubsetState>& states,
                std::vector<ScoredUnit>* out) {
    ++units_enumerated_;
    ScoredUnit scored;
    scored.unit = unit;
    scored.spans.reserve(states.size());
    double total_len = 0.0;
    for (const auto& s : states) {
      const auto produced = unit.Eval(s.source);
      if (!produced.has_value() || produced->empty()) return;
      const size_t at = s.target.find(*produced);
      if (at == std::string_view::npos) return;
      scored.spans.emplace_back(at, at + produced->size());
      total_len += static_cast<double>(produced->size());
    }
    scored.score = total_len / static_cast<double>(states.size());
    out->push_back(std::move(scored));
  }

  /// The exhaustive unit+parameter enumeration (parameters taken from the
  /// first row's source, as spans/pieces must exist there to match at all).
  std::vector<ScoredUnit> EnumerateCandidates(
      const std::vector<SubsetState>& states) {
    std::vector<ScoredUnit> out;
    const std::string_view src0 = states[0].source;
    const std::string_view tgt0 = states[0].target;

    // Substr(s, e) over every span of the first source.
    for (size_t s = 0; s < src0.size() && !TimeExpired(); ++s) {
      for (size_t e = s + 1; e <= src0.size(); ++e) {
        Consider(Unit::MakeSubstr(static_cast<int32_t>(s),
                                  static_cast<int32_t>(e)),
                 states, &out);
      }
    }

    // Split(c, i) and SplitSubstr(c, i, s, e) over every distinct character
    // and piece of the first source.
    bool seen[256] = {false};
    std::vector<char> distinct;
    for (char c : src0) {
      auto& flag = seen[static_cast<unsigned char>(c)];
      if (!flag) {
        flag = true;
        distinct.push_back(c);
      }
    }
    for (char c : distinct) {
      if (TimeExpired()) break;
      const std::vector<std::string_view> pieces = SplitByChar(src0, c);
      for (size_t i = 0; i < pieces.size(); ++i) {
        Consider(Unit::MakeSplit(c, static_cast<int32_t>(i)), states, &out);
        const std::string_view piece = pieces[i];
        for (size_t s = 0; s < piece.size(); ++s) {
          for (size_t e = s + 1; e <= piece.size(); ++e) {
            if (s == 0 && e == piece.size()) continue;  // == Split(c, i)
            Consider(Unit::MakeSplitSubstr(c, static_cast<int32_t>(i),
                                           static_cast<int32_t>(s),
                                           static_cast<int32_t>(e)),
                     states, &out);
          }
        }
      }
    }

    // TwoCharSplitSubstr over delimiter pairs (normally disabled, §6.2).
    if (options_.enable_twochar_split_substr) {
      for (char c1 : distinct) {
        if (TimeExpired()) break;
        for (char c2 : distinct) {
          if (c1 == c2) continue;
          int32_t qualifying = 0;
          for (const BoundedToken& tok : TokenizeOnTwoChars(src0, c1, c2)) {
            if (tok.prev != c1 || tok.next != c2) continue;
            for (size_t s = 0; s < tok.text.size(); ++s) {
              for (size_t e = s + 1; e <= tok.text.size(); ++e) {
                Consider(Unit::MakeTwoCharSplitSubstr(
                             c1, c2, qualifying, static_cast<int32_t>(s),
                             static_cast<int32_t>(e)),
                         states, &out);
              }
            }
            ++qualifying;
          }
        }
      }
    }

    // Literal candidates: substrings of the first residual target present in
    // every other residual target.
    for (size_t s = 0; s < tgt0.size() && !TimeExpired(); ++s) {
      for (size_t e = s + 1; e <= tgt0.size(); ++e) {
        Consider(Unit::MakeLiteral(std::string(tgt0.substr(s, e - s))),
                 states, &out);
      }
    }
    return out;
  }

  const AutoJoinOptions& options_;
  UnitInterner* interner_;
  const double deadline_;
  Stopwatch watch_;
  uint64_t clock_checks_ = 0;
  uint64_t units_enumerated_ = 0;
  bool timed_out_ = false;
};

}  // namespace

AutoJoinResult RunAutoJoin(const std::vector<ExamplePair>& rows,
                           const AutoJoinOptions& options) {
  AutoJoinResult result;
  result.num_rows = rows.size();
  Stopwatch watch;
  if (rows.empty()) return result;

  AutoJoinSearch search(options, &result.units, options.time_budget_seconds);
  Rng rng(options.seed);
  std::unordered_set<uint64_t> found_hashes;

  for (size_t subset_index = 0; subset_index < options.num_subsets;
       ++subset_index) {
    if (search.timed_out()) break;
    // Sample subset_size distinct rows (or all rows when input is smaller).
    const size_t k = std::min(options.subset_size, rows.size());
    std::vector<uint32_t> idx(rows.size());
    for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
    rng.Shuffle(&idx);
    idx.resize(k);

    std::vector<SubsetState> states;
    states.reserve(k);
    for (uint32_t i : idx) {
      states.push_back(SubsetState{rows[i].source, rows[i].target});
    }
    auto units = search.Find(states, options.max_depth);
    if (!units.has_value()) continue;
    Transformation t = Transformation::Normalized(*units, &result.units);
    if (t.empty()) continue;
    if (!found_hashes.insert(t.Hash()).second) continue;
    result.found.push_back(result.store.Append(t.units()));
  }

  result.timed_out = search.timed_out();
  result.units_enumerated = search.units_enumerated();

  // Coverage of the found transformations over the full input.
  DiscoveryOptions coverage_options;
  DiscoveryStats stats;
  result.coverage = ComputeCoverage(result.store, result.units, rows,
                                    coverage_options, &stats);
  for (TransformationId id : result.found) {
    result.ranked.push_back({id, result.coverage.Count(id)});
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const RankedTransformation& a, const RankedTransformation& b) {
              if (a.coverage != b.coverage) return a.coverage > b.coverage;
              return a.id < b.id;
            });
  DynamicBitset covered(rows.size());
  for (TransformationId id : result.found) {
    for (uint32_t row : result.coverage.RowsOf(id)) covered.Set(row);
  }
  result.union_coverage =
      rows.empty() ? 0.0
                   : static_cast<double>(covered.Count()) /
                         static_cast<double>(rows.size());
  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace tj
