// Auto-FuzzyJoin baseline (Li et al., SIGMOD 2021) — similarity-based join
// with label-free configuration tuning. The original system is closed
// source; this is a faithful-in-shape simulation (documented in DESIGN.md
// §4): it auto-programs a (similarity function, threshold) pair without
// labels by maximizing match count subject to an estimated-precision
// constraint, where precision is estimated from mutual-best-match
// consistency. Like AFJ, it returns joined pairs only — no interpretable
// transformations.

#ifndef TJ_BASELINES_FUZZYJOIN_H_
#define TJ_BASELINES_FUZZYJOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/column.h"
#include "table/table_pair.h"

namespace tj {

enum class SimilarityKind {
  kTokenJaccard,   // Jaccard over lowercased word tokens
  kQgramJaccard,   // Jaccard over character q-grams (q = options.qgram)
  kEditSimilarity  // 1 - Levenshtein/maxlen
};

struct FuzzyJoinOptions {
  /// Configurations below this estimated precision are rejected (AFJ's
  /// precision-target knob; 0.9 default).
  double precision_target = 0.9;
  /// Threshold grid swept per similarity function.
  std::vector<double> thresholds = {0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  size_t qgram = 3;
  /// Candidate generation: only target rows sharing at least one word token
  /// or q-gram with the source row are scored (blocking).
  size_t max_candidates_per_row = 64;
};

struct FuzzyJoinResult {
  std::vector<RowPair> joined;
  SimilarityKind chosen_kind = SimilarityKind::kTokenJaccard;
  double chosen_threshold = 0.0;
  double estimated_precision = 0.0;
  size_t configurations_tried = 0;
};

/// Auto-programs the similarity configuration and joins the two columns.
FuzzyJoinResult RunAutoFuzzyJoin(const Column& source, const Column& target,
                                 const FuzzyJoinOptions& options);

}  // namespace tj

#endif  // TJ_BASELINES_FUZZYJOIN_H_
