// Tests for the row matcher (Algorithm 1) and the inverted index. The
// IRF/Rscore tests sit beside their oracle helpers in
// match_identity_test.cc.

#include <gtest/gtest.h>

#include "datagen/figure1.h"
#include "index/inverted_index.h"
#include "match/metrics.h"
#include "match/row_matcher.h"
#include "text/ngram.h"

namespace tj {
namespace {

TEST(InvertedIndex, PostingsAreSortedAndDeduplicated) {
  Column c("v", {"abababab", "zzzzabab", "qqqq"});
  const auto index = NgramInvertedIndex::Build(c);
  const auto& rows = index.Lookup("abab");
  ASSERT_EQ(rows.size(), 2u);  // row 0 contains "abab" three times: once
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 1u);
  EXPECT_TRUE(index.Lookup("wxyz").empty());
}

TEST(InvertedIndex, DfMatchesPostingSize) {
  Column c("v", {"hello", "hell", "help"});
  const auto index = NgramInvertedIndex::Build(c);
  EXPECT_EQ(index.Df("hell"), 2u);
  EXPECT_EQ(index.Df("help"), 1u);
  EXPECT_EQ(index.Df("hello"), 1u);
  EXPECT_EQ(index.Df("nope"), 0u);
}

TEST(InvertedIndex, LowercasingFoldsCase) {
  Column c("v", {"ABCD"});
  const auto index = NgramInvertedIndex::Build(c);
  EXPECT_EQ(index.Df("abcd"), 1u);
  EXPECT_EQ(index.Df("ABCD"), 0u);  // queries must be lowercased too
}

TEST(InvertedIndex, IndexesAllSizesInRange) {
  // A 22-byte row: every size from kMinGram (4) to kMaxGram (20) is
  // indexed, at both ends of the row; sizes 3 and 21 are not.
  Column c("v", {"abcdefghijklmnopqrstuv"});
  const auto index = NgramInvertedIndex::Build(c);
  const std::string_view row = c.Get(0);
  ASSERT_EQ(row.size(), kMaxGram + 2);
  EXPECT_EQ(index.Df(row.substr(0, kMinGram - 1)), 0u);
  for (size_t n = kMinGram; n <= kMaxGram; ++n) {
    EXPECT_EQ(index.Df(row.substr(0, n)), 1u) << n;
    EXPECT_EQ(index.Df(row.substr(row.size() - n)), 1u) << n;
  }
  EXPECT_EQ(index.Df(row.substr(0, kMaxGram + 1)), 0u);
  EXPECT_EQ(index.Df(row.substr(1)), 0u);
  EXPECT_EQ(index.Df(row), 0u);
}

TEST(RowMatcher, MatchesFigure1NamePhonePair) {
  const TablePair pair = Figure1NamePhonePair();
  const RowMatchResult result = FindJoinablePairs(
      pair.SourceColumn(), pair.TargetColumn(), RowMatchOptions());
  const PrfMetrics m = EvaluatePairs(result.pairs, pair.golden);
  // Last names are distinctive: matching should be near perfect.
  EXPECT_GE(m.recall, 0.99);
  EXPECT_GE(m.precision, 0.8);
}

TEST(RowMatcher, SourceRowsWithoutSharedGramsAreUnmatched) {
  Column source("s", {"completely-distinct-alpha", "shared-block-here"});
  Column target("t", {"shared-block-here too"});
  const RowMatchResult result =
      FindJoinablePairs(source, target, RowMatchOptions());
  EXPECT_EQ(result.unmatched_source_rows, 1u);
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].source, 1u);
}

TEST(PickSourceColumn, PrefersLongerAverage) {
  Column longer("a", {"a much longer description here"});
  Column shorter("b", {"short"});
  EXPECT_TRUE(PickSourceColumn(longer, shorter));
  EXPECT_FALSE(PickSourceColumn(shorter, longer));
}

TEST(Metrics, PerfectPrediction) {
  PairSet golden;
  golden.Add({0, 0});
  golden.Add({1, 1});
  const PrfMetrics m = EvaluatePairs({{0, 0}, {1, 1}}, golden);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
}

TEST(Metrics, MixedPrediction) {
  PairSet golden;
  golden.Add({0, 0});
  golden.Add({1, 1});
  golden.Add({2, 2});
  const PrfMetrics m = EvaluatePairs({{0, 0}, {5, 5}}, golden);
  EXPECT_DOUBLE_EQ(m.precision, 0.5);
  EXPECT_NEAR(m.recall, 1.0 / 3.0, 1e-9);
}

TEST(Metrics, DuplicatesCountOnce) {
  PairSet golden;
  golden.Add({0, 0});
  const PrfMetrics m = EvaluatePairs({{0, 0}, {0, 0}, {0, 0}}, golden);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_EQ(m.predicted, 1u);
}

TEST(Metrics, EmptyCasesAreSafe) {
  PairSet golden;
  const PrfMetrics none = EvaluatePairs({}, golden);
  EXPECT_DOUBLE_EQ(none.precision, 0.0);
  EXPECT_DOUBLE_EQ(none.recall, 0.0);
  EXPECT_DOUBLE_EQ(none.f1, 0.0);
}

}  // namespace
}  // namespace tj
