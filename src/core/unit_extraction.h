// Unit-candidate extraction (paper §4.1.4): given a placeholder (a block of
// target text with known source occurrences), produce every transformation
// unit that emits exactly that text — anchored to the occurrences instead of
// blindly searching the parameter space, which is what makes the parameter
// space O(1) per placeholder (§5.1).

#ifndef TJ_CORE_UNIT_EXTRACTION_H_
#define TJ_CORE_UNIT_EXTRACTION_H_

#include <string_view>
#include <vector>

#include "core/options.h"
#include "core/placeholder.h"
#include "core/unit_interner.h"

namespace tj {

/// Appends to *out the deduplicated candidate unit ids that map `source` to
/// the placeholder text `target[block.begin, block.end)`:
///  * Substr(pos, pos+len) for each source occurrence;
///  * Split(c, i) when the occurrence is exactly a split piece;
///  * SplitSubstr(c, i, s, e) for every distinct source character c not in
///    the placeholder text (capped at kMaxSplitChars), anchored to
///    the piece containing the occurrence;
///  * TwoCharSplitSubstr for nearby delimiter pairs (when enabled);
///  * Literal(text) — a constant in the target may match the source by
///    chance (§4.1.4).
/// Every emitted unit U satisfies U.Eval(source) == placeholder text
/// (TJ_DCHECK-verified in debug builds).
void ExtractUnitsForPlaceholder(std::string_view source,
                                std::string_view target,
                                const SkeletonBlock& block,
                                const DiscoveryOptions& options,
                                UnitInterner* interner,
                                std::vector<UnitId>* out);

}  // namespace tj

#endif  // TJ_CORE_UNIT_EXTRACTION_H_
