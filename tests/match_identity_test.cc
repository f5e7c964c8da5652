// Identity suite for row matching: FindJoinablePairs indexes only the
// target column and probes it with every source gram. The oracle below is
// the map-based matcher it replaced — both columns indexed, an Rscore map
// over every distinct source gram the target also holds, a serial
// left-to-right scan — and the two must agree pair for pair, in emission
// order, and on unmatched_source_rows. Checked on random columns (Rscore
// ties, mixed case, bytes >= 0x80, empty and short rows, empty columns,
// nmax past the row length, max_pairs cutting a row, frozen and unfrozen
// columns) at 1/2/4/8 threads. Run with `ctest -L match`, in plain and
// ASan+UBSan builds.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
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

/// What the oracle saw besides its result, so the suite can show that the
/// random inputs reached the cases it claims to cover.
struct OracleProbes {
  /// Representative choices where a later gram scored exactly the best
  /// score so far (the first occurrence kept it).
  size_t ties = 0;
  /// Runs where the max_pairs budget stopped a row after it had emitted.
  size_t mid_row_cuts = 0;
};

/// Algorithm 1 as FindJoinablePairs computed it before the target-only
/// probe: a source index for df_s, an Rscore map holding every distinct
/// source gram with a positive target-side IRF, then a serial scan picking,
/// per row and size, the first gram with the largest score.
RowMatchResult OracleFindJoinablePairs(const Column& source,
                                       const Column& target,
                                       const RowMatchOptions& options,
                                       OracleProbes* probes) {
  const NgramInvertedIndex source_index = NgramInvertedIndex::Build(
      source, options.n0, options.nmax, options.lowercase, 1);
  const NgramInvertedIndex target_index = NgramInvertedIndex::Build(
      target, options.n0, options.nmax, options.lowercase, 1);

  std::unordered_map<std::string_view, double, StringHash, StringEq> rscore;
  for (uint32_t id = 0; id < source_index.num_grams(); ++id) {
    const std::string_view gram = source_index.gram(id);
    const double target_irf = InverseRowFrequency(target_index, gram);
    if (target_irf == 0.0) continue;
    rscore.emplace(gram, (1.0 / static_cast<double>(
                                    source_index.postings(id).size())) *
                             target_irf);
  }

  RowMatchResult result;
  std::vector<uint32_t> seen_stamp(target.size(), 0);
  for (uint32_t row = 0; row < source.size(); ++row) {
    const std::string text = options.lowercase
                                 ? ToLowerAscii(source.Get(row))
                                 : std::string(source.Get(row));
    std::vector<uint32_t> occurrences;
    for (size_t n = options.n0; n <= options.nmax && n <= text.size(); ++n) {
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
      const std::span<const uint32_t> targets = target_index.Lookup(rep);
      occurrences.insert(occurrences.end(), targets.begin(), targets.end());
    }
    bool any = false;
    const uint32_t stamp = row + 1;
    for (const uint32_t target_row : occurrences) {
      if (options.max_pairs != 0 &&
          result.pairs.size() >= options.max_pairs) {
        if (any) ++probes->mid_row_cuts;
        return result;
      }
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

TEST(MatchIdentity, ProbeMatchesMapOracleOnRandomColumns) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  ThreadPool* const pools[] = {nullptr, &pool2, &pool4, &pool8};

  Rng rng(20260417);
  OracleProbes probes;
  size_t budget_cases = 0;
  size_t empty_column_cases = 0;
  size_t nonempty_results = 0;
  constexpr int kCases = 600;
  for (int c = 0; c < kCases; ++c) {
    std::vector<std::string> words(static_cast<size_t>(rng.UniformInt(2, 6)));
    for (std::string& word : words) {
      word = rng.RandomString(static_cast<size_t>(rng.UniformInt(1, 7)),
                              kAlphabet);
    }
    const Column source = RandomColumn(&rng, words, "s");
    const Column target = RandomColumn(&rng, words, "t");
    if (source.empty() || target.empty()) ++empty_column_cases;

    RowMatchOptions options;
    options.n0 = static_cast<size_t>(rng.UniformInt(1, 4));
    // Mostly narrow windows; sometimes far past every row's length.
    options.nmax = rng.Bernoulli(0.2)
                       ? 20
                       : options.n0 + static_cast<size_t>(rng.UniformInt(0, 5));
    options.lowercase = rng.Bernoulli(0.5);
    const uint64_t budget_kind = rng.Uniform(4);
    options.max_pairs = budget_kind == 0   ? 0
                        : budget_kind == 1 ? 1
                        : budget_kind == 2 ? 7
                                           : static_cast<size_t>(
                                                 rng.UniformInt(2, 30));
    if (options.max_pairs != 0) ++budget_cases;

    const RowMatchResult want =
        OracleFindJoinablePairs(source, target, options, &probes);
    if (!want.pairs.empty()) ++nonempty_results;
    for (ThreadPool* pool : pools) {
      RowMatchOptions run = options;
      run.pool = pool;
      const std::string label =
          "case " + std::to_string(c) + " threads " +
          std::to_string(pool == nullptr ? 1 : pool->size()) + " n0 " +
          std::to_string(options.n0) + " nmax " +
          std::to_string(options.nmax) + " lowercase " +
          std::to_string(options.lowercase) + " max_pairs " +
          std::to_string(options.max_pairs);
      ExpectSameResult(want, FindJoinablePairs(source, target, run), label);
      if (HasFatalFailure()) return;
    }
  }
  // The random inputs must reach what the suite claims to cover.
  EXPECT_GT(probes.ties, 0u);
  EXPECT_GT(probes.mid_row_cuts, 0u);
  EXPECT_GT(budget_cases, 0u);
  EXPECT_GT(empty_column_cases, 0u);
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
    RowMatchOptions options;
    options.n0 = 2;
    options.nmax = 6;
    OracleProbes probes;
    const RowMatchResult want =
        OracleFindJoinablePairs(source, target, options, &probes);
    for (const int threads : {1, 2, 4, 8}) {
      options.num_threads = threads;
      ExpectSameResult(want, FindJoinablePairs(source, target, options),
                       "case " + std::to_string(c) + " num_threads " +
                           std::to_string(threads));
    }
  }
}

TEST(MatchIdentity, FirstOccurrenceWinsRscoreTie) {
  // "xy" (position 0) and "yx" (position 1) both score 1 * 1; the first
  // occurrence is the representative, so only target row 0 matches. The
  // second "xy" at position 2 ties too and must not displace it.
  Column source("s", {"xyxy"});
  Column target("t", {"xy", "yx"});
  RowMatchOptions options;
  options.n0 = 2;
  options.nmax = 2;
  OracleProbes probes;
  const RowMatchResult want =
      OracleFindJoinablePairs(source, target, options, &probes);
  ASSERT_EQ(want.pairs.size(), 1u);
  EXPECT_EQ(want.pairs[0].target, 0u);
  ExpectSameResult(want, FindJoinablePairs(source, target, options), "tie");
}

TEST(MatchIdentity, HighBytesAndShortRows) {
  // Rows shorter than n0 (and empty rows) emit nothing and count as
  // unmatched; bytes >= 0x80 are matched as they are, never lowercased.
  Column source("s", {"", "\xc3", "\xc3\xa9t\xc3\xa9", "ABC\xff\xfe"});
  Column target("t", {"\xc3\xa9t\xc3\xa9!", "abc\xff\xfe", "\xc3\x89T"});
  for (const bool lowercase : {false, true}) {
    RowMatchOptions options;
    options.n0 = 3;
    options.nmax = 20;
    options.lowercase = lowercase;
    OracleProbes probes;
    const RowMatchResult want =
        OracleFindJoinablePairs(source, target, options, &probes);
    ExpectSameResult(want, FindJoinablePairs(source, target, options),
                     lowercase ? "lowercase" : "as-is");
    EXPECT_GE(want.unmatched_source_rows, 2u);
  }
}

TEST(MatchIdentity, UnvalidatedWindowsMatchOracle) {
  // ValidateOptions rejects these windows, but a direct call must still
  // agree with the oracle rather than size anything by nmax - n0: an
  // inverted window matches nothing, a huge nmax stops at the row length.
  Column source("s", {"abcde", "bcd", ""});
  Column target("t", {"xabcdex", "bcd"});
  for (const auto& [n0, nmax] : std::vector<std::pair<size_t, size_t>>{
           {5, 3}, {3, size_t{1} << 40}, {0, 2}}) {
    RowMatchOptions options;
    options.n0 = n0;
    options.nmax = nmax;
    OracleProbes probes;
    const RowMatchResult want =
        OracleFindJoinablePairs(source, target, options, &probes);
    ExpectSameResult(want, FindJoinablePairs(source, target, options),
                     "n0 " + std::to_string(n0) + " nmax " +
                         std::to_string(nmax));
  }
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
  Column column("v", {"abcabd", "xbcab"});
  const NgramInvertedIndex index =
      NgramInvertedIndex::Build(column, 2, 4, false);
  for (uint32_t id = 0; id < index.num_grams(); ++id) {
    const std::string_view gram = index.gram(id);
    EXPECT_EQ(index.GramId(gram, HashString(gram)), id);
  }
  EXPECT_EQ(index.GramId("zz", HashString("zz")), NgramInvertedIndex::kNoGram);
  const NgramInvertedIndex empty;
  EXPECT_EQ(empty.GramId("ab", HashString("ab")), NgramInvertedIndex::kNoGram);
}

}  // namespace
}  // namespace tj
