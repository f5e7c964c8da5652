// Output checks: join quality against the generator's ground truth, found
// by re-applying the returned rules, and the served-answer comparison.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"
#include "table/column.h"
#include "table/table_pair.h"

namespace perfbench {

/// Row-pair counts behind a precision/recall/F1.
struct RowCounts {
  size_t true_positives = 0;
  size_t predicted = 0;
  size_t actual = 0;

  void Add(const RowCounts& other) {
    true_positives += other.true_positives;
    predicted += other.predicted;
    actual += other.actual;
  }
  double F1() const;
};

/// Planted-pair recall and row-level F1 over a run's planted pairs.
struct QualityTally {
  size_t planted = 0;
  size_t found = 0;  // returned with at least one applied rule
  RowCounts rows;

  double Recall() const {
    return planted == 0 ? 0.0
                        : static_cast<double>(found) /
                              static_cast<double>(planted);
  }
};

/// `golden` as (source row, target row) of the engine's orientation:
/// flipped when the engine made the planted target its source.
tj::PairSet Orient(const tj::PairSet& golden, bool flipped);

/// Parses the printed rules with ParseTransformationSet, re-applies them
/// with ApplyAndEquiJoin, and scores the joined rows against `golden`.
/// `*joined_rows` receives the re-applied join's size, which must equal the
/// size the engine reported.
tj::Result<RowCounts> ScoreRules(const std::vector<std::string>& rules,
                                 const tj::Column& source,
                                 const tj::Column& target,
                                 const tj::PairSet& golden,
                                 size_t* joined_rows);

/// Records one planted pair's outcome in `tally`; returns a divergence
/// description (empty when consistent).
std::string TallyPlanted(const std::vector<std::string>& rules,
                         size_t reported_joined, const tj::Column& source,
                         const tj::Column& target, const tj::PairSet& golden,
                         QualityTally* tally);

/// The response a served `joinable` on `column` must produce: the batch
/// per-pair results with the actual response's epoch. Empty when `actual`
/// is byte-identical to it; otherwise what differs.
std::string CompareServedAnswer(const tj::serve::JsonValue& expected_results,
                                const std::string& column,
                                const std::string& actual);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
