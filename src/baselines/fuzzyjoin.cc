#include "baselines/fuzzyjoin.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/strings.h"
#include "text/edit_distance.h"
#include "text/ngram.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

using TokenSet = std::vector<std::string>;  // sorted unique tokens

TokenSet WordTokenSet(std::string_view s) {
  TokenSet t = WordTokens(s);
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

TokenSet QgramSet(std::string_view s, size_t q) {
  const std::string lowered = ToLowerAscii(s);
  TokenSet t;
  ForEachNgram(lowered, q, [&](std::string_view g) { t.emplace_back(g); });
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

double Jaccard(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t inter = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].compare(b[j]);
    if (cmp == 0) {
      ++inter;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) /
                              static_cast<double>(uni);
}

/// Sparse similarity lists: per source row, the scored candidate targets.
struct SimEntry {
  uint32_t target = 0;
  double sim = 0.0;
};

}  // namespace

FuzzyJoinResult RunAutoFuzzyJoin(const Column& source, const Column& target,
                                 const FuzzyJoinOptions& options) {
  FuzzyJoinResult result;
  const size_t ns = source.size();
  const size_t nt = target.size();
  if (ns == 0 || nt == 0) return result;

  // --- Blocking: shared word-token or q-gram candidates. ---
  std::unordered_map<std::string, std::vector<uint32_t>, StringHash, StringEq>
      token_index;
  std::vector<TokenSet> target_words(nt);
  std::vector<TokenSet> target_qgrams(nt);
  for (uint32_t r = 0; r < nt; ++r) {
    target_words[r] = WordTokenSet(target.Get(r));
    target_qgrams[r] = QgramSet(target.Get(r), options.qgram);
    for (const auto& tok : target_words[r]) token_index[tok].push_back(r);
    for (const auto& g : target_qgrams[r]) token_index[g].push_back(r);
  }

  std::vector<std::vector<uint32_t>> candidates(ns);
  for (uint32_t r = 0; r < ns; ++r) {
    std::unordered_set<uint32_t> cand;
    auto probe = [&](const std::string& key) {
      auto it = token_index.find(key);
      if (it == token_index.end()) return;
      for (uint32_t t : it->second) {
        if (cand.size() >= options.max_candidates_per_row) break;
        cand.insert(t);
      }
    };
    for (const auto& tok : WordTokenSet(source.Get(r))) probe(tok);
    for (const auto& g : QgramSet(source.Get(r), options.qgram)) probe(g);
    candidates[r].assign(cand.begin(), cand.end());
    std::sort(candidates[r].begin(), candidates[r].end());
  }

  // --- Score candidates under each similarity function. ---
  const SimilarityKind kinds[] = {SimilarityKind::kTokenJaccard,
                                  SimilarityKind::kQgramJaccard,
                                  SimilarityKind::kEditSimilarity};
  std::vector<std::vector<std::vector<SimEntry>>> sims(3);
  std::vector<TokenSet> source_words(ns);
  std::vector<TokenSet> source_qgrams(ns);
  for (uint32_t r = 0; r < ns; ++r) {
    source_words[r] = WordTokenSet(source.Get(r));
    source_qgrams[r] = QgramSet(source.Get(r), options.qgram);
  }
  for (size_t k = 0; k < 3; ++k) {
    sims[k].resize(ns);
    for (uint32_t r = 0; r < ns; ++r) {
      for (uint32_t t : candidates[r]) {
        double sim = 0.0;
        switch (kinds[k]) {
          case SimilarityKind::kTokenJaccard:
            sim = Jaccard(source_words[r], target_words[t]);
            break;
          case SimilarityKind::kQgramJaccard:
            sim = Jaccard(source_qgrams[r], target_qgrams[t]);
            break;
          case SimilarityKind::kEditSimilarity:
            sim = EditSimilarity(ToLowerAscii(source.Get(r)),
                                 ToLowerAscii(target.Get(t)));
            break;
        }
        if (sim > 0.0) sims[k][r].push_back(SimEntry{t, sim});
      }
    }
  }

  // --- Auto-programming: sweep (kind, threshold); estimate precision from
  // mutual-best-match consistency; pick the largest match set meeting the
  // precision target. ---
  struct Config {
    size_t kind_index = 0;
    double threshold = 0.0;
    size_t matches = 0;
    double est_precision = 0.0;
    std::vector<RowPair> pairs;
  };
  Config best;
  bool best_valid = false;
  Config fallback;
  bool fallback_valid = false;

  for (size_t k = 0; k < 3; ++k) {
    // Mutual-best pairs for this similarity function.
    std::vector<SimEntry> best_for_source(ns);
    std::unordered_map<uint32_t, SimEntry> best_for_target;
    for (uint32_t r = 0; r < ns; ++r) {
      for (const SimEntry& e : sims[k][r]) {
        if (e.sim > best_for_source[r].sim) best_for_source[r] = e;
        auto& bt = best_for_target[e.target];
        if (e.sim > bt.sim) bt = SimEntry{r, e.sim};
      }
    }
    std::unordered_set<RowPair, RowPairHash> mutual;
    for (uint32_t r = 0; r < ns; ++r) {
      const SimEntry& e = best_for_source[r];
      if (e.sim <= 0.0) continue;
      auto it = best_for_target.find(e.target);
      if (it != best_for_target.end() && it->second.target == r) {
        mutual.insert(RowPair{r, e.target});
      }
    }

    for (double threshold : options.thresholds) {
      ++result.configurations_tried;
      Config config;
      config.kind_index = k;
      config.threshold = threshold;
      size_t mutual_hits = 0;
      for (uint32_t r = 0; r < ns; ++r) {
        for (const SimEntry& e : sims[k][r]) {
          if (e.sim < threshold) continue;
          config.pairs.push_back(RowPair{r, e.target});
          if (mutual.count(RowPair{r, e.target}) > 0) ++mutual_hits;
        }
      }
      config.matches = config.pairs.size();
      config.est_precision =
          config.matches == 0
              ? 0.0
              : static_cast<double>(mutual_hits) /
                    static_cast<double>(config.matches);
      if (config.matches > 0 &&
          config.est_precision >= options.precision_target) {
        if (!best_valid || config.matches > best.matches) {
          best = config;
          best_valid = true;
        }
      }
      if (config.matches > 0 &&
          (!fallback_valid ||
           config.est_precision > fallback.est_precision)) {
        fallback = config;
        fallback_valid = true;
      }
    }
  }

  const Config* chosen =
      best_valid ? &best : (fallback_valid ? &fallback : nullptr);
  if (chosen == nullptr) return result;
  result.joined = chosen->pairs;
  result.chosen_kind = kinds[chosen->kind_index];
  result.chosen_threshold = chosen->threshold;
  result.estimated_precision = chosen->est_precision;
  return result;
}

}  // namespace tj
