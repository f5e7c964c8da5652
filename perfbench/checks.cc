#include "checks.h"

#include "core/serialization.h"
#include "join/join_engine.h"
#include "match/metrics.h"

namespace perfbench {

double RowCounts::F1() const {
  if (predicted == 0 || actual == 0 || true_positives == 0) return 0.0;
  const double precision = static_cast<double>(true_positives) /
                           static_cast<double>(predicted);
  const double recall =
      static_cast<double>(true_positives) / static_cast<double>(actual);
  return 2.0 * precision * recall / (precision + recall);
}

tj::PairSet Orient(const tj::PairSet& golden, bool flipped) {
  if (!flipped) return golden;
  tj::PairSet out;
  for (const tj::RowPair& p : golden.pairs()) {
    out.Add(tj::RowPair{p.target, p.source});
  }
  return out;
}

tj::Result<RowCounts> ScoreRules(const std::vector<std::string>& rules,
                                 const tj::Column& source,
                                 const tj::Column& target,
                                 const tj::PairSet& golden,
                                 size_t* joined_rows) {
  std::string text;
  for (const std::string& rule : rules) text += rule + "\n";
  tj::Result<tj::TransformationSet> parsed = tj::ParseTransformationSet(text);
  if (!parsed.ok()) return parsed.status();
  const std::vector<tj::RowPair> joined = tj::ApplyAndEquiJoin(
      source, target, parsed->store, parsed->units, parsed->ids);
  *joined_rows = joined.size();
  const tj::PrfMetrics prf = tj::EvaluatePairs(joined, golden);
  RowCounts counts;
  counts.true_positives = prf.true_positives;
  counts.predicted = prf.predicted;
  counts.actual = prf.actual;
  return counts;
}

std::string TallyPlanted(const std::vector<std::string>& rules,
                         size_t reported_joined, const tj::Column& source,
                         const tj::Column& target, const tj::PairSet& golden,
                         QualityTally* tally) {
  ++tally->planted;
  if (!rules.empty()) ++tally->found;
  size_t rejoined = 0;
  tj::Result<RowCounts> counts =
      ScoreRules(rules, source, target, golden, &rejoined);
  if (!counts.ok()) {
    tally->rows.actual += golden.size();
    return "returned rules do not parse: " + counts.status().ToString();
  }
  tally->rows.Add(*counts);
  if (rejoined != reported_joined) {
    return "re-applied rules join " + std::to_string(rejoined) +
           " rows, the engine reported " + std::to_string(reported_joined);
  }
  return "";
}

std::string CompareServedAnswer(const tj::serve::JsonValue& expected_results,
                                const std::string& column,
                                const std::string& actual) {
  using tj::serve::JsonValue;
  tj::Result<JsonValue> parsed = JsonValue::Parse(actual);
  if (!parsed.ok()) return "response is not JSON: " + actual.substr(0, 80);
  const JsonValue* epoch = parsed->Find("epoch");
  if (epoch == nullptr || !epoch->is_number()) {
    return "response carries no epoch: " + actual.substr(0, 80);
  }
  JsonValue expected = JsonValue::Object();
  expected.Set("ok", JsonValue::Bool(true));
  expected.Set("epoch", JsonValue::Number(epoch->AsNumber()));
  expected.Set("column", JsonValue::Str(column));
  expected.Set("results", expected_results);
  const std::string want = expected.Serialize();
  if (want == actual) return "";
  size_t at = 0;
  while (at < want.size() && at < actual.size() && want[at] == actual[at]) {
    ++at;
  }
  const size_t from = at < 40 ? 0 : at - 40;
  return "served answer for " + column + " differs from batch at byte " +
         std::to_string(at) + ": served ..." + actual.substr(from, 80) +
         "... batch ..." + want.substr(from, 80) + "...";
}

}  // namespace perfbench
