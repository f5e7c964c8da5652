// Solution compilation (paper §4.1.6): top-k transformations by coverage and
// the greedy minimal covering set (classic set cover; H(n)-approximate).

#ifndef TJ_CORE_SET_COVER_H_
#define TJ_CORE_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "core/coverage.h"

namespace tj {

/// A transformation with its input coverage (row count).
struct RankedTransformation {
  TransformationId id = 0;
  uint32_t coverage = 0;
};

/// The k highest-coverage transformations with coverage >= min_support,
/// ordered by coverage descending, then id ascending (deterministic). A
/// count histogram finds the k-th largest coverage, so only the at most k
/// kept entries are sorted.
std::vector<RankedTransformation> TopKByCoverage(const CoverageIndex& index,
                                                 size_t k,
                                                 uint32_t min_support);

struct SetCoverOptions {
  /// Transformations covering fewer rows are not eligible (the paper's
  /// support threshold used on noisy open data).
  uint32_t min_support = 1;
};

struct SetCoverResult {
  /// Selected transformations in greedy order.
  std::vector<RankedTransformation> selected;
  /// Marginal rows each selection added (parallel to `selected`).
  std::vector<uint32_t> marginal_gains;
  /// Rows covered by the union of the selection.
  size_t covered_rows = 0;
  /// Final covered-row set.
  DynamicBitset covered;
};

/// Lazy-greedy (CELF-style) set cover: repeatedly select the transformation
/// covering the most still-uncovered rows. Deterministic tie-break on id.
/// The candidates wait in one bucket per coverage count (counts never exceed
/// the row count), popped in a binary max-heap's (count, then smaller id)
/// order, so a pop from the count-1 tail costs O(1).
SetCoverResult GreedySetCover(const CoverageIndex& index, size_t num_rows,
                              const SetCoverOptions& options);

}  // namespace tj

#endif  // TJ_CORE_SET_COVER_H_
