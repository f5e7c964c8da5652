// Tests for the text kernel: LCP table, tokenizer, n-grams, edit distance,
// character classes.

#include <gtest/gtest.h>

#include <string>

#include "text/char_class.h"
#include "text/edit_distance.h"
#include "text/lcp.h"
#include "text/ngram.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

TEST(LcpTable, BasicLcpValues) {
  const LcpTable t = LcpTable::Build("abcab", "cabx");
  // source[3..] = "ab", target[1..] = "abx": lcp = 2.
  EXPECT_EQ(t.Lcp(3, 1), 2);
  // source[2..] = "cab", target[0..] = "cabx": lcp = 3.
  EXPECT_EQ(t.Lcp(2, 0), 3);
  EXPECT_EQ(t.Lcp(0, 0), 0);  // 'a' vs 'c'
}

TEST(LcpTable, LongestMatchAtEachTargetPosition) {
  const LcpTable t = LcpTable::Build("bowling, michael",
                                     "michael.bowling");
  EXPECT_EQ(t.LongestMatchAt(0), 7);  // "michael"
  EXPECT_EQ(t.LongestMatchAt(7), 0);  // '.' absent from source
  EXPECT_EQ(t.LongestMatchAt(8), 7);  // "bowling"
}

TEST(LcpTable, MatchPositionsFindsAllOccurrences) {
  const LcpTable t = LcpTable::Build("abab", "ab");
  std::vector<uint32_t> positions;
  t.MatchPositions(0, 2, &positions);
  EXPECT_EQ(positions, (std::vector<uint32_t>{0, 2}));
}

TEST(LcpTable, EmptyStringsAreSafe) {
  const LcpTable t = LcpTable::Build("", "abc");
  EXPECT_EQ(t.LongestMatchAt(0), 0);
  const LcpTable t2 = LcpTable::Build("abc", "");
  EXPECT_EQ(t2.target_length(), 0u);
}

TEST(LcpTable, OutOfRangeQueriesReturnZero) {
  const LcpTable t = LcpTable::Build("ab", "ab");
  EXPECT_EQ(t.Lcp(5, 0), 0);
  EXPECT_EQ(t.Lcp(0, 5), 0);
  EXPECT_EQ(t.LongestMatchAt(10), 0);
}

TEST(Tokenizer, SplitByCharKeepsEmptyPieces) {
  const auto pieces = SplitByChar("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
  EXPECT_EQ(pieces[3], "");
}

TEST(Tokenizer, SplitOfEmptyStringIsOneEmptyPiece) {
  const auto pieces = SplitByChar("", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "");
}

TEST(Tokenizer, NthSplitPieceMatchesSplitByChar) {
  const std::string input = "x|yy||z";
  const auto pieces = SplitByChar(input, '|');
  for (size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_EQ(NthSplitPiece(input, '|', static_cast<int32_t>(i)), pieces[i]);
  }
  EXPECT_FALSE(NthSplitPiece(input, '|', 4).has_value());
  EXPECT_FALSE(NthSplitPiece(input, '|', -1).has_value());
}

TEST(Tokenizer, CountSplitPieces) {
  EXPECT_EQ(CountSplitPieces("a,b,c", ','), 3u);
  EXPECT_EQ(CountSplitPieces("abc", ','), 1u);
  EXPECT_EQ(CountSplitPieces(",", ','), 2u);
}

TEST(Tokenizer, TokenizeOnTwoCharsAnnotatesBounds) {
  const auto tokens = TokenizeOnTwoChars("a<x>b", '<', '>');
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[0].prev, 0);
  EXPECT_EQ(tokens[0].next, '<');
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[1].prev, '<');
  EXPECT_EQ(tokens[1].next, '>');
  EXPECT_EQ(tokens[2].text, "b");
  EXPECT_EQ(tokens[2].prev, '>');
  EXPECT_EQ(tokens[2].next, 0);
}

TEST(Tokenizer, WordTokensLowercasesAndSplitsOnNonAlnum) {
  const auto tokens = WordTokens("Hello, World-42!");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "42");
}

TEST(Ngram, ForEachNgramYieldsAllWindows) {
  std::vector<std::string> grams;
  ForEachNgram("abcd", 2, [&](std::string_view g) { grams.emplace_back(g); });
  EXPECT_EQ(grams, (std::vector<std::string>{"ab", "bc", "cd"}));
}

TEST(Ngram, ForEachNgramDegenerateCases) {
  int count = 0;
  ForEachNgram("ab", 3, [&](std::string_view) { ++count; });
  ForEachNgram("ab", 0, [&](std::string_view) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(EditDistance, KnownValues) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(EditDistance, Symmetric) {
  EXPECT_EQ(EditDistance("flaw", "lawn"), EditDistance("lawn", "flaw"));
}

TEST(EditSimilarity, NormalizedToUnitInterval) {
  EXPECT_DOUBLE_EQ(EditSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(EditSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0, 1e-9);
}

TEST(CharClass, SeparatorSetIsSpacesAndPunctuation) {
  EXPECT_TRUE(IsSeparatorChar(' '));
  EXPECT_TRUE(IsSeparatorChar(','));
  EXPECT_TRUE(IsSeparatorChar('-'));
  EXPECT_TRUE(IsSeparatorChar('.'));
  EXPECT_FALSE(IsSeparatorChar('a'));
  EXPECT_FALSE(IsSeparatorChar('7'));
}

TEST(CharClass, AlnumClasses) {
  EXPECT_TRUE(IsAlnumChar('a'));
  EXPECT_TRUE(IsAlnumChar('Z'));
  EXPECT_TRUE(IsAlnumChar('0'));
  EXPECT_FALSE(IsAlnumChar('-'));
  EXPECT_TRUE(IsDigitChar('5'));
  EXPECT_FALSE(IsDigitChar('a'));
}

}  // namespace
}  // namespace tj
