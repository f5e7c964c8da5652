// Identity suite for row matching: FindJoinablePairs indexes only the
// target column and probes it with every source gram. The oracle below is
// the map-based matcher it replaced — both columns indexed, an Rscore map
// over every distinct source gram the target also holds, a serial
// left-to-right scan — and the two must agree pair for pair, in emission
// order, and on unmatched_source_rows. Checked on random columns (rows
// shorter than kMinGram and longer than kMaxGram, Rscore ties, mixed case,
// bytes >= 0x80, empty rows, empty columns, frozen and unfrozen columns) at
// 1/2/4/8 threads. The IRF and Rscore of Eq. 1 and 2 live here too, as the
// oracle's helpers. Run with `ctest -L match`, in plain and ASan+UBSan
// builds.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "match/row_matcher.h"
#include "text/ngram.h"

namespace tj {
namespace {

/// IRF(t, c) = 1 / (number of rows of column c containing t); 0 when t does
/// not appear (Eq. 1 of the paper, extended so that absent grams score 0).
double InverseRowFrequency(const NgramInvertedIndex& index,
                           std::string_view gram) {
  const size_t df = index.Df(gram);
  if (df == 0) return 0.0;
  return 1.0 / static_cast<double>(df);
}

/// Rscore(t) = IRF(t, SC) * IRF(t, TC) (Eq. 2).
double Rscore(const NgramInvertedIndex& source_index,
              const NgramInvertedIndex& target_index, std::string_view gram) {
  return InverseRowFrequency(source_index, gram) *
         InverseRowFrequency(target_index, gram);
}

TEST(Irf, InverseOfRowFrequency) {
  Column c("v", {"xxxx aaaa", "yyyy aaaa", "zzzz"});
  const auto index = NgramInvertedIndex::Build(c);
  EXPECT_DOUBLE_EQ(InverseRowFrequency(index, "aaaa"), 0.5);
  EXPECT_DOUBLE_EQ(InverseRowFrequency(index, "zzzz"), 1.0);
  EXPECT_DOUBLE_EQ(InverseRowFrequency(index, "qqqq"), 0.0);
}

TEST(Rscore, ProductOfBothSides) {
  Column source("s", {"abcdwxyz", "abcdqqqq"});
  Column target("t", {"abcdwxyz", "wxyzrrrr"});
  const auto si = NgramInvertedIndex::Build(source);
  const auto ti = NgramInvertedIndex::Build(target);
  // "abcd": df_s = 2, df_t = 1 -> 0.5; "wxyz": df_s = 1, df_t = 2 -> 0.5.
  EXPECT_DOUBLE_EQ(Rscore(si, ti, "abcd"), 0.5);
  EXPECT_DOUBLE_EQ(Rscore(si, ti, "wxyz"), 0.5);
  EXPECT_DOUBLE_EQ(Rscore(si, ti, "abcdwxyz"), 1.0);
  EXPECT_DOUBLE_EQ(Rscore(si, ti, "zzzz"), 0.0);
}

/// What the oracle saw besides its result, so the suite can show that the
/// random inputs reached the cases it claims to cover.
struct OracleProbes {
  /// Representative choices where a later gram scored exactly the best
  /// score so far (the first occurrence kept it).
  size_t ties = 0;
  /// Source rows too short to hold a kMinGram-gram.
  size_t short_rows = 0;
  /// Source rows longer than kMaxGram.
  size_t long_rows = 0;
  /// Representatives of size kMaxGram, the largest the scan considers.
  size_t max_size_reps = 0;
};

/// Algorithm 1 as FindJoinablePairs computed it before the target-only
/// probe: a source index for df_s, an Rscore map holding every distinct
/// source gram with a positive target-side IRF, then a serial scan picking,
/// per row and size, the first gram with the largest score.
RowMatchResult OracleFindJoinablePairs(const Column& source,
                                       const Column& target,
                                       OracleProbes* probes) {
  const NgramInvertedIndex source_index = NgramInvertedIndex::Build(source);
  const NgramInvertedIndex target_index = NgramInvertedIndex::Build(target);

  std::unordered_map<std::string_view, double, StringHash, StringEq> rscore;
  for (uint32_t id = 0; id < source_index.num_grams(); ++id) {
    const std::string_view gram = source_index.gram(id);
    const double score = Rscore(source_index, target_index, gram);
    if (score != 0.0) rscore.emplace(gram, score);
  }

  RowMatchResult result;
  std::vector<uint32_t> seen_stamp(target.size(), 0);
  for (uint32_t row = 0; row < source.size(); ++row) {
    const std::string text = ToLowerAscii(source.Get(row));
    if (text.size() < kMinGram) ++probes->short_rows;
    if (text.size() > kMaxGram) ++probes->long_rows;
    std::vector<uint32_t> occurrences;
    for (size_t n = kMinGram; n <= kMaxGram && n <= text.size(); ++n) {
      std::string_view rep;
      double best = 0.0;
      ForEachNgram(text, n, [&](std::string_view gram) {
        const auto it = rscore.find(gram);
        if (it == rscore.end()) return;
        if (it->second > best) {
          best = it->second;
          rep = gram;
        } else if (it->second == best && gram != rep) {
          ++probes->ties;
        }
      });
      if (rep.empty()) continue;
      if (n == kMaxGram) ++probes->max_size_reps;
      const std::span<const uint32_t> targets = target_index.Lookup(rep);
      occurrences.insert(occurrences.end(), targets.begin(), targets.end());
    }
    bool any = false;
    const uint32_t stamp = row + 1;
    for (const uint32_t target_row : occurrences) {
      if (seen_stamp[target_row] != stamp) {
        seen_stamp[target_row] = stamp;
        result.pairs.push_back(RowPair{row, target_row});
        any = true;
      }
    }
    if (!any) ++result.unmatched_source_rows;
  }
  return result;
}

void ExpectSameResult(const RowMatchResult& want, const RowMatchResult& got,
                      const std::string& label) {
  EXPECT_EQ(got.unmatched_source_rows, want.unmatched_source_rows) << label;
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << label;
  for (size_t i = 0; i < want.pairs.size(); ++i) {
    ASSERT_TRUE(got.pairs[i] == want.pairs[i])
        << label << " pair " << i << ": got (" << got.pairs[i].source << ","
        << got.pairs[i].target << ") want (" << want.pairs[i].source << ","
        << want.pairs[i].target << ")";
  }
}

/// Small alphabet (so grams repeat and scores tie) with both cases, a
/// separator and bytes >= 0x80.
constexpr std::string_view kAlphabet = "abcABC -\xc3\xa9\x80\xff";

/// Shared words: mostly short, so rows fall on both sides of kMinGram,
/// and sometimes one longer than kMaxGram, so a shared run outgrows the
/// largest representative size.
std::vector<std::string> RandomWords(Rng* rng) {
  std::vector<std::string> words(static_cast<size_t>(rng->UniformInt(2, 6)));
  for (std::string& word : words) {
    word = rng->RandomString(static_cast<size_t>(rng->UniformInt(1, 8)),
                             kAlphabet);
  }
  if (rng->Bernoulli(0.3)) {
    const auto longest = static_cast<int64_t>(kMaxGram);
    words[0] = rng->RandomString(
        static_cast<size_t>(rng->UniformInt(longest + 1, longest + 8)),
        kAlphabet);
  }
  return words;
}

/// A row built from shared words (so source grams hit the target) plus
/// noise; empty and very short rows come out often.
std::string RandomRow(Rng* rng, const std::vector<std::string>& words) {
  if (rng->Bernoulli(0.1)) return std::string();
  std::string row;
  const size_t parts = static_cast<size_t>(rng->UniformInt(1, 3));
  for (size_t p = 0; p < parts; ++p) {
    if (rng->Bernoulli(0.7)) {
      row += words[static_cast<size_t>(rng->Uniform(words.size()))];
    } else {
      row += rng->RandomString(static_cast<size_t>(rng->UniformInt(0, 4)),
                               kAlphabet);
    }
  }
  return row;
}

Column RandomColumn(Rng* rng, const std::vector<std::string>& words,
                    const char* name) {
  Column column(name);
  if (rng->Bernoulli(0.08)) return column;  // empty column
  const size_t rows = static_cast<size_t>(rng->UniformInt(1, 24));
  for (size_t r = 0; r < rows; ++r) column.Append(RandomRow(rng, words));
  if (rng->Bernoulli(0.5)) column.Freeze();
  return column;
}

/// Counts of input traits the oracle does not see.
struct InputProbes {
  size_t empty_columns = 0;
  size_t frozen_columns = 0;
  size_t unfrozen_columns = 0;
  size_t upper_case_rows = 0;
  size_t high_byte_rows = 0;

  void Add(const Column& column) {
    if (column.empty()) ++empty_columns;
    ++(column.frozen() ? frozen_columns : unfrozen_columns);
    for (size_t row = 0; row < column.size(); ++row) {
      const std::string_view text = column.Get(row);
      if (text != ToLowerAscii(text)) ++upper_case_rows;
      for (const char c : text) {
        if (static_cast<unsigned char>(c) >= 0x80) {
          ++high_byte_rows;
          break;
        }
      }
    }
  }
};

TEST(MatchIdentity, ProbeMatchesMapOracleOnRandomColumns) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool4, &pool8};

  Rng rng(20260417);
  OracleProbes probes;
  InputProbes inputs;
  size_t nonempty_results = 0;
  constexpr int kCases = 600;
  for (int c = 0; c < kCases; ++c) {
    const std::vector<std::string> words = RandomWords(&rng);
    const Column source = RandomColumn(&rng, words, "s");
    const Column target = RandomColumn(&rng, words, "t");
    inputs.Add(source);
    inputs.Add(target);

    const RowMatchResult want =
        OracleFindJoinablePairs(source, target, &probes);
    if (!want.pairs.empty()) ++nonempty_results;
    for (ThreadPool* pool : pools) {
      RowMatchOptions options;
      options.pool = pool;
      const std::string label =
          "case " + std::to_string(c) + " threads " +
          std::to_string(pool == nullptr ? 1 : pool->size());
      ExpectSameResult(want, FindJoinablePairs(source, target, options),
                       label);
      if (HasFatalFailure()) return;
    }
  }
  // The random inputs must reach what the suite claims to cover.
  EXPECT_GT(probes.ties, 0u);
  EXPECT_GT(probes.short_rows, 0u);
  EXPECT_GT(probes.long_rows, 0u);
  EXPECT_GT(probes.max_size_reps, 0u);
  EXPECT_GT(inputs.empty_columns, 0u);
  EXPECT_GT(inputs.frozen_columns, 0u);
  EXPECT_GT(inputs.unfrozen_columns, 0u);
  EXPECT_GT(inputs.upper_case_rows, 0u);
  EXPECT_GT(inputs.high_byte_rows, 0u);
  EXPECT_GT(nonempty_results, static_cast<size_t>(kCases) / 4);
}

TEST(MatchIdentity, OwnedPoolsMatchOracle) {
  // num_threads without a shared pool: each call builds and drops its own.
  Rng rng(7);
  const std::vector<std::string> words = {"Smith", "smyth", "\xc3\xa9t\xc3\xa9",
                                          "ab-ab", "Ba"};
  for (int c = 0; c < 20; ++c) {
    const Column source = RandomColumn(&rng, words, "s");
    const Column target = RandomColumn(&rng, words, "t");
    OracleProbes probes;
    const RowMatchResult want =
        OracleFindJoinablePairs(source, target, &probes);
    RowMatchOptions options;
    for (const int threads : {1, 2, 4, 8}) {
      options.num_threads = threads;
      ExpectSameResult(want, FindJoinablePairs(source, target, options),
                       "case " + std::to_string(c) + " num_threads " +
                           std::to_string(threads));
    }
  }
}

TEST(MatchIdentity, FirstOccurrenceWinsRscoreTie) {
  // "abcd" (position 0) and "bcda" (position 1) both score 1 * 1; the first
  // occurrence is the representative, so only target row 0 matches. The
  // later "abcd" and "bcda" (positions 4 and 5) tie too and must not
  // displace it.
  Column source("s", {"abcdabcda"});
  Column target("t", {"abcd", "bcda"});
  OracleProbes probes;
  const RowMatchResult want =
      OracleFindJoinablePairs(source, target, &probes);
  ASSERT_EQ(want.pairs.size(), 1u);
  EXPECT_EQ(want.pairs[0].target, 0u);
  EXPECT_GT(probes.ties, 0u);
  ExpectSameResult(want, FindJoinablePairs(source, target, RowMatchOptions()),
                   "tie");
}

TEST(MatchIdentity, LongestRepresentativeReachesItsOwnRow) {
  // One source row of kMaxGram + 1 distinct bytes. Target row 0 is its
  // kMaxGram-byte prefix, row 1 its kMaxGram-byte suffix, row 2 its
  // (kMaxGram - 1)-byte prefix plus a foreign byte. Below kMaxGram every
  // gram but the one ending in the last byte is in at least two target
  // rows, so that gram (row 1 only) is each size's representative; at
  // kMaxGram the prefix and the suffix tie and the prefix, first, wins.
  // Row 0 is reached only through the size-kMaxGram representative.
  std::string row;
  for (size_t i = 0; i <= kMaxGram; ++i) row += static_cast<char>('a' + i);
  Column source("s", {row});
  Column target("t", {row.substr(0, kMaxGram), row.substr(1),
                      row.substr(0, kMaxGram - 1) + "z"});
  OracleProbes probes;
  const RowMatchResult want =
      OracleFindJoinablePairs(source, target, &probes);
  const std::vector<RowPair> expected = {{0, 1}, {0, 0}};
  EXPECT_TRUE(want.pairs == expected);
  ExpectSameResult(want, FindJoinablePairs(source, target, RowMatchOptions()),
                   "longest representative");
}

TEST(MatchIdentity, HighBytesAndShortRows) {
  // Rows shorter than kMinGram (and empty rows) emit nothing and count as
  // unmatched; bytes >= 0x80 are matched as they are, never lowercased, so
  // "\xc3\x89" (É) does not meet "\xc3\xa9" (é) while "ABC" meets "abc".
  Column source("s", {"", "\xc3", "\xc3\xa9t\xc3\xa9", "ABC\xff\xfe"});
  Column target("t",
                {"\xc3\xa9t\xc3\xa9!", "abc\xff\xfe", "\xc3\x89T\xc3\x89"});
  OracleProbes probes;
  const RowMatchResult want =
      OracleFindJoinablePairs(source, target, &probes);
  const std::vector<RowPair> expected = {{2, 0}, {3, 1}};
  EXPECT_TRUE(want.pairs == expected);
  EXPECT_EQ(want.unmatched_source_rows, 2u);
  ExpectSameResult(want, FindJoinablePairs(source, target, RowMatchOptions()),
                   "high bytes");
}

TEST(MatchIdentity, IncrementalFnvMatchesHashString) {
  // The probe extends one FNV-1a state per start position; Mix64 of that
  // state must be HashString of the current gram, or probes would miss
  // slots the index build filled.
  Rng rng(99);
  for (int c = 0; c < 50; ++c) {
    const std::string text =
        rng.RandomString(static_cast<size_t>(rng.UniformInt(0, 40)),
                         kAlphabet);
    for (size_t i = 0; i < text.size(); ++i) {
      uint64_t state = kFnvOffsetBasis;
      for (size_t n = 1; i + n <= text.size(); ++n) {
        state = FnvStep(state, static_cast<unsigned char>(text[i + n - 1]));
        ASSERT_EQ(Mix64(state), HashString(std::string_view(text).substr(i, n)))
            << "i " << i << " n " << n;
      }
    }
  }
}

TEST(MatchIdentity, HashedGramIdMatchesLookup) {
  Column column("v", {"abcabdabc", "xbcabdx"});
  const NgramInvertedIndex index = NgramInvertedIndex::Build(column);
  ASSERT_GT(index.num_grams(), 0u);
  for (uint32_t id = 0; id < index.num_grams(); ++id) {
    const std::string_view gram = index.gram(id);
    EXPECT_EQ(index.GramId(gram, HashString(gram)), id);
  }
  EXPECT_EQ(index.GramId("zzzz", HashString("zzzz")),
            NgramInvertedIndex::kNoGram);
  const NgramInvertedIndex empty;
  EXPECT_EQ(empty.GramId("abca", HashString("abca")),
            NgramInvertedIndex::kNoGram);
}

}  // namespace
}  // namespace tj
