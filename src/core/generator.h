// Per-row transformation generation (paper §4.1.4): enumerate skeletons,
// replace each placeholder with its candidate units, and append the
// Cartesian product of the candidate sets, duplicates included, to the
// transformation store (ComputeCoverage's seal drops the duplicates).

#ifndef TJ_CORE_GENERATOR_H_
#define TJ_CORE_GENERATOR_H_

#include <string_view>

#include "core/options.h"
#include "core/stats.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {

/// Generates all candidate transformations for one (source, target) row and
/// appends them to `store`. Phase wall-times and generation counters are
/// accumulated into `stats` (placeholder generation, unit extraction,
/// duplicate removal — the Figure 4 module breakdown).
void GenerateTransformationsForRow(std::string_view source,
                                   std::string_view target,
                                   const DiscoveryOptions& options,
                                   UnitInterner* interner,
                                   TransformationStore* store,
                                   DiscoveryStats* stats);

}  // namespace tj

#endif  // TJ_CORE_GENERATOR_H_
