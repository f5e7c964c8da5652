// Coverage computation (paper §4.1.5): which input rows each unique
// transformation covers, as a CSR index from transformation id to rows.
// Units are evaluated at most once per row through a per-row memo whose
// failed entries are the paper's negative-unit cache. The trie build also
// seals the store: duplicate removal, the paper's first pruning strategy.

#ifndef TJ_CORE_COVERAGE_H_
#define TJ_CORE_COVERAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/example.h"
#include "core/options.h"
#include "core/stats.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {

/// Compressed sparse mapping transformation id -> covered row ids.
class CoverageIndex {
 public:
  CoverageIndex() = default;

  size_t num_transformations() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  uint32_t Count(TransformationId t) const {
    return offsets_[t + 1] - offsets_[t];
  }

  /// Covered rows of transformation t, ascending.
  std::span<const uint32_t> RowsOf(TransformationId t) const {
    return std::span<const uint32_t>(rows_.data() + offsets_[t],
                                     rows_.data() + offsets_[t + 1]);
  }

  /// Total covering (transformation, row) pairs.
  size_t TotalPairs() const { return rows_.size(); }

  bool operator==(const CoverageIndex&) const = default;

 private:
  friend CoverageIndex ComputeCoverage(TransformationStore&,
                                       const UnitInterner&,
                                       const std::vector<ExamplePair>&,
                                       const DiscoveryOptions&,
                                       DiscoveryStats*);

  std::vector<uint32_t> offsets_;  // num_transformations + 1
  std::vector<uint32_t> rows_;     // concatenated covered-row lists
};

/// Evaluates every transformation in `store` against every row. The memo is
/// a per-unit array of (row epoch, state) words, reset in O(1) per row.
///
/// By default the store's unit sequences are arranged in a prefix trie,
/// built once per call by a counting pass per level, and each row walks it:
/// a unit that fails, or whose output does not continue the target, prunes
/// every transformation sharing that prefix at once. The trie's root
/// children are grouped by what fixes their first output byte (a literal's
/// first byte, source[s] for Substr, piece[s] for SplitSubstr); per row the
/// walk enters only the groups whose byte is target[0], plus the children
/// whose output can be empty or whose head is unknown. Split and SplitSubstr
/// read their pieces from a per-row table of delimiter positions. With
/// options.paper_coverage_scan, or without options.enable_neg_cache, the
/// paper's row-major scan runs instead: every transformation on every row
/// through Unit::Eval, skipped when one of its units is already known bad
/// (the paper's second pruning strategy). Both produce the same index at
/// every thread count; DiscoveryStats documents how their counters differ.
/// With options.enable_dedup an unsealed `store` is first sealed by the
/// trie build (TransformationStore::Seal; identical sequences end at one
/// node) and stats->unique_transformations set to its size; the scan, and a
/// store too deep to walk, then drop the trie. A sealed store is only read.
CoverageIndex ComputeCoverage(TransformationStore& store,
                              const UnitInterner& interner,
                              const std::vector<ExamplePair>& rows,
                              const DiscoveryOptions& options,
                              DiscoveryStats* stats);

}  // namespace tj

#endif  // TJ_CORE_COVERAGE_H_
