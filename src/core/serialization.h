// Textual serialization of units and transformations.
//
// The format is exactly Unit::ToString()/Transformation::ToString():
//
//   <SplitSubstr(' ',1,0,1), Literal(' '), Split(',',0)>
//
// so anything the library prints can be parsed back. This enables the
// paper's "transfer" workflow (§8): persist the rules learned on one dataset
// and apply them to another without re-running discovery.

#ifndef TJ_CORE_SERIALIZATION_H_
#define TJ_CORE_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/transformation.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {

/// Parses one unit, e.g. `Split(',',0)` or `Literal('. ')`. Literal strings
/// use the EscapeForDisplay escapes (\', \\, \n, \t, \r, \xNN).
Result<Unit> ParseUnit(std::string_view text);

/// Parses `<unit, unit, ...>` into a transformation, interning its units.
Result<Transformation> ParseTransformation(std::string_view text,
                                           UnitInterner* interner);

/// A parsed rule set: the units, the transformations, and their ids in
/// file order. A rule repeated in the file is stored once, at its first
/// line.
struct TransformationSet {
  UnitInterner units;
  TransformationStore store;
  std::vector<TransformationId> ids;
};

/// Serializes transformations one per line (comment lines start with '#').
std::string SerializeTransformations(const TransformationStore& store,
                                     const UnitInterner& units,
                                     const std::vector<TransformationId>& ids);

/// Parses a multi-line rule file produced by SerializeTransformations.
/// Blank lines and '#' comments are skipped; any malformed line fails.
Result<TransformationSet> ParseTransformationSet(std::string_view text);

/// File convenience wrappers.
Status SaveTransformationsToFile(const std::string& path,
                                 const TransformationStore& store,
                                 const UnitInterner& units,
                                 const std::vector<TransformationId>& ids);
Result<TransformationSet> LoadTransformationsFromFile(const std::string& path);

}  // namespace tj

#endif  // TJ_CORE_SERIALIZATION_H_
