// End-to-end join engine tests (paper §4.2, §6.5).

#include <gtest/gtest.h>

#include "datagen/figure1.h"
#include "datagen/synth.h"
#include "join/join_engine.h"

namespace tj {
namespace {

TEST(JoinEngine, Figure1PhonesJoinPerfectlyWithGoldenLearning) {
  // "Nascimento, Mario A" needs its own 3-placeholder rule that covers only
  // one row, so the support threshold must admit singleton rules here.
  const TablePair pair = Figure1NamePhonePair();
  JoinOptions options;
  options.matching = MatchingMode::kGolden;
  options.min_join_support = 0.15;  // ceil(0.15 * 6) = 1 supporting row
  const JoinResult result = TransformJoin(pair, options);
  EXPECT_DOUBLE_EQ(result.metrics.precision, 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.recall, 1.0);
  EXPECT_FALSE(result.applied_transformations.empty());
}

TEST(JoinEngine, SupportThresholdTradesRecallForGenerality) {
  // With support >= 2 rows, the middle-initial row stays unjoined (5/6).
  const TablePair pair = Figure1NamePhonePair();
  JoinOptions options;
  options.matching = MatchingMode::kGolden;
  options.min_join_support = 0.3;  // ceil(0.3 * 6) = 2 supporting rows
  const JoinResult result = TransformJoin(pair, options);
  EXPECT_DOUBLE_EQ(result.metrics.precision, 1.0);
  EXPECT_NEAR(result.metrics.recall, 5.0 / 6.0, 1e-9);
}

TEST(JoinEngine, Figure1PhonesJoinWithAutomaticMatching) {
  const TablePair pair = Figure1NamePhonePair();
  JoinOptions options;
  options.matching = MatchingMode::kNgram;
  options.min_join_support = 0.3;
  const JoinResult result = TransformJoin(pair, options);
  EXPECT_GE(result.metrics.f1, 0.9);
}

TEST(JoinEngine, SynthJoinRecoversGoldenPairs) {
  const SynthDataset ds = GenerateSynth(SynthN(60, 23));
  JoinOptions options;
  options.matching = MatchingMode::kGolden;
  options.min_join_support = 0.05;
  const JoinResult result = TransformJoin(ds.pair, options);
  EXPECT_GE(result.metrics.precision, 0.95);
  EXPECT_GE(result.metrics.recall, 0.9);
}

TEST(JoinEngine, SupportThresholdLimitsAppliedTransformations) {
  const SynthDataset ds = GenerateSynth(SynthN(60, 29));
  JoinOptions strict;
  strict.matching = MatchingMode::kGolden;
  strict.min_join_support = 0.9;  // no single rule covers 90% of 3-rule data
  const JoinResult result = TransformJoin(ds.pair, strict);
  EXPECT_TRUE(result.applied_transformations.empty());
  EXPECT_TRUE(result.joined.empty());
}

TEST(JoinEngine, SamplingBoundsLearningPairs) {
  const SynthDataset ds = GenerateSynth(SynthN(80, 31));
  JoinOptions options;
  options.matching = MatchingMode::kGolden;
  options.sample_pairs = 25;
  options.min_join_support = 0.05;
  const JoinResult result = TransformJoin(ds.pair, options);
  EXPECT_EQ(result.learning_pairs, 25u);
  // Sampling should not destroy join quality (§5.3).
  EXPECT_GE(result.metrics.f1, 0.8);
}

TEST(ApplyAndEquiJoin, ManyToManySemantics) {
  Column source("s", {"a|1", "b|2"});
  Column target("t", {"a", "a", "b"});
  UnitInterner units;
  TransformationStore store;
  const TransformationId id =
      store.Append(std::vector<UnitId>{units.Intern(Unit::MakeSplit('|', 0))});
  const std::vector<RowPair> joined =
      ApplyAndEquiJoin(source, target, store, units, {id});
  // Source row 0 joins both "a" rows; row 1 joins the "b" row.
  EXPECT_EQ(joined.size(), 3u);
}

TEST(ApplyAndEquiJoin, NoTransformationsNoPairs) {
  Column source("s", {"a"});
  Column target("t", {"a"});
  UnitInterner units;
  TransformationStore store;
  EXPECT_TRUE(ApplyAndEquiJoin(source, target, store, units, {}).empty());
}

}  // namespace
}  // namespace tj
