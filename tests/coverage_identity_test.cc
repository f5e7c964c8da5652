// Identity suite for the coverage engine's two paths: the default prefix-trie
// walk must reproduce the paper's row-major scan (the oracle) bit for bit —
// same CoverageIndex CSR, same covering_pairs — at 1/2/4/8 threads, on
// generated stores and on hand-built stores that hit the trie's corner
// cases (root terminals, terminals on inner nodes, duplicate ids, empty unit
// outputs, one unit matching at different offsets, literal-only sequences,
// sequences too deep for the trie). The walk dispatches the root's children
// by their first output byte and reads Split/SplitSubstr pieces from a
// per-row split table, while the scan runs Unit::Eval on every unit; the
// dispatch cases below (empty pieces and empty targets, failing root
// children, bytes >= 0x80) and the randomized split stores check both.
// The first call on an appended store seals it under enable_dedup; a second
// call must return the same index and leave the store unchanged.
// Run with `ctest -L coverage`, in plain and ASan+UBSan builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/coverage.h"
#include "core/generator.h"
#include "datagen/synth.h"
#include "text/tokenizer.h"

namespace tj {
namespace {

/// Computes coverage with the scan (1 thread) and with the trie walk at
/// 1/2/4/8 threads; every walk must equal the scan's index. Returns the
/// scan's index for spot checks. With `dedup` the scan's call seals an
/// appended store and the walks read the sealed one.
CoverageIndex ExpectPathsAgree(TransformationStore& store,
                               const UnitInterner& units,
                               const std::vector<ExamplePair>& rows,
                               bool dedup = true) {
  DiscoveryOptions scan;
  scan.paper_coverage_scan = true;
  scan.enable_dedup = dedup;
  DiscoveryStats scan_stats;
  const CoverageIndex oracle =
      ComputeCoverage(store, units, rows, scan, &scan_stats);

  DiscoveryStats walk_serial;
  for (int threads : {1, 2, 4, 8}) {
    DiscoveryOptions walk;
    walk.num_threads = threads;
    walk.enable_dedup = dedup;
    DiscoveryStats stats;
    const CoverageIndex index =
        ComputeCoverage(store, units, rows, walk, &stats);
    EXPECT_TRUE(index == oracle) << threads << " threads";
    EXPECT_EQ(stats.covering_pairs, scan_stats.covering_pairs) << threads;
    EXPECT_EQ(stats.covering_pairs, oracle.TotalPairs()) << threads;
    EXPECT_EQ(stats.cache_hits + stats.full_evaluations,
              store.size() * rows.size())
        << threads;
    if (threads == 1) {
      walk_serial = stats;
    } else {
      EXPECT_EQ(stats.cache_hits, walk_serial.cache_hits) << threads;
      EXPECT_EQ(stats.full_evaluations, walk_serial.full_evaluations)
          << threads;
      EXPECT_EQ(stats.unit_evals, walk_serial.unit_evals) << threads;
    }
  }
  return oracle;
}

// ---- Generated stores -----------------------------------------------------

struct SynthCase {
  const char* name;
  bool long_rows;  // Synth-NL (40-70 chars) instead of Synth-N (20-35)
  size_t rows;
  bool dedup;
};

// Keeps ctest's test names (which embed the printed parameter) stable.
void PrintTo(const SynthCase& c, std::ostream* os) { *os << c.name; }

class TrieIdentityTest : public ::testing::TestWithParam<SynthCase> {};

TEST_P(TrieIdentityTest, WalkMatchesScanAtEveryThreadCount) {
  const SynthCase& c = GetParam();
  const SynthDataset ds = GenerateSynth(c.long_rows ? SynthNL(c.rows, 31)
                                                    : SynthN(c.rows, 31));
  const std::vector<ExamplePair> rows =
      MakeExamplePairs(ds.pair.SourceColumn(), ds.pair.TargetColumn(),
                       ds.pair.golden.pairs());
  DiscoveryOptions options;
  options.enable_dedup = c.dedup;
  UnitInterner units;
  TransformationStore store;
  DiscoveryStats stats;
  for (const ExamplePair& row : rows) {
    GenerateTransformationsForRow(row.source, row.target, options, &units,
                                  &store, &stats);
  }
  ASSERT_GT(store.size(), 0u);
  const CoverageIndex oracle = ExpectPathsAgree(store, units, rows, c.dedup);
  EXPECT_GT(oracle.TotalPairs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Synth, TrieIdentityTest,
    ::testing::Values(SynthCase{"N40", false, 40, true},
                      SynthCase{"N40_nodedup", false, 40, false},
                      SynthCase{"N200", false, 200, true},
                      SynthCase{"N200_nodedup", false, 200, false},
                      SynthCase{"NL40", true, 40, true},
                      SynthCase{"NL40_nodedup", true, 40, false},
                      SynthCase{"NL200", true, 200, true},
                      SynthCase{"NL200_nodedup", true, 200, false}),
    [](const ::testing::TestParamInfo<SynthCase>& info) {
      return std::string(info.param.name);
    });

// On either path, and with dedup on or off, a second call on the store the
// first call left reads it without change and returns the same index.
TEST(SealedStore, SecondCallReturnsTheSameIndexAndLeavesTheStoreUnchanged) {
  const SynthDataset ds = GenerateSynth(SynthN(200, 31));
  const std::vector<ExamplePair> rows =
      MakeExamplePairs(ds.pair.SourceColumn(), ds.pair.TargetColumn(),
                       ds.pair.golden.pairs());
  for (const bool dedup : {true, false}) {
    for (const bool paper : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "dedup " << dedup << " paper " << paper);
      DiscoveryOptions options;
      options.enable_dedup = dedup;
      options.paper_coverage_scan = paper;
      UnitInterner units;
      TransformationStore store;
      DiscoveryStats stats;
      for (const ExamplePair& row : rows) {
        GenerateTransformationsForRow(row.source, row.target, options, &units,
                                      &store, &stats);
      }
      const size_t appended = store.size();
      const CoverageIndex first =
          ComputeCoverage(store, units, rows, options, &stats);
      EXPECT_EQ(store.sealed(), dedup);
      if (dedup) {
        EXPECT_LT(store.size(), appended);  // Synth-N generates duplicates
      } else {
        EXPECT_EQ(store.size(), appended);
      }
      std::vector<std::vector<UnitId>> sequences;
      for (TransformationId t = 0; t < store.size(); ++t) {
        sequences.push_back(store.Get(t).units());
      }
      DiscoveryStats again;
      again.unique_transformations = 7;  // a second call does not reset it
      EXPECT_TRUE(ComputeCoverage(store, units, rows, options, &again) ==
                  first);
      EXPECT_EQ(again.unique_transformations, 7u);
      EXPECT_EQ(again.covering_pairs, first.TotalPairs());
      EXPECT_EQ(store.sealed(), dedup);
      ASSERT_EQ(store.size(), sequences.size());
      for (TransformationId t = 0; t < store.size(); ++t) {
        ASSERT_EQ(store.Get(t).units(), sequences[t]) << t;
      }
    }
  }
}

// ---- Hand-built stores ----------------------------------------------------

class TrieCornerCaseTest : public ::testing::Test {
 protected:
  TransformationId Add(const std::vector<Unit>& units) {
    std::vector<UnitId> ids;
    for (const Unit& u : units) ids.push_back(units_.Intern(u));
    return store_.Append(ids);
  }

  std::vector<uint32_t> Rows(const CoverageIndex& index,
                             TransformationId t) const {
    const auto rows = index.RowsOf(t);
    return std::vector<uint32_t>(rows.begin(), rows.end());
  }

  UnitInterner units_;
  TransformationStore store_;
};

TEST_F(TrieCornerCaseTest, EmptyTransformationIsARootTerminal) {
  const TransformationId empty = Add({});
  const TransformationId split = Add({Unit::MakeSplit(',', 0)});
  const std::vector<ExamplePair> rows = {
      {"a,b", ""}, {"a,b", "a"}, {",b", ""}, {"x", ""}, {"x", "x"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, empty), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(Rows(index, split), (std::vector<uint32_t>{1, 2, 4}));
}

TEST_F(TrieCornerCaseTest, StrictPrefixEndsOnAnInnerNode) {
  const TransformationId head = Add({Unit::MakeSplit(',', 0)});
  const TransformationId longer =
      Add({Unit::MakeSplit(',', 0), Unit::MakeLiteral("!")});
  const TransformationId longest = Add({Unit::MakeSplit(',', 0),
                                        Unit::MakeLiteral("!"),
                                        Unit::MakeSplit(',', 1)});
  const std::vector<ExamplePair> rows = {
      {"ab,cd", "ab"}, {"ab,cd", "ab!"}, {"ab,cd", "ab!cd"}, {"q,r", "q"},
      {"q,r", "q!"},   {"q,r", "zz"},    {"ab,cd", "ab!c"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, head), (std::vector<uint32_t>{0, 3}));
  EXPECT_EQ(Rows(index, longer), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(Rows(index, longest), (std::vector<uint32_t>{2}));
}

TEST_F(TrieCornerCaseTest, DuplicateIdsWithoutDedupAllEndAtOneNode) {
  const std::vector<Unit> seq = {Unit::MakeSplit('-', 1),
                                 Unit::MakeLiteral("@")};
  const TransformationId a = Add(seq);
  const TransformationId prefix = Add({Unit::MakeSplit('-', 1)});
  const TransformationId b = Add(seq);
  const TransformationId prefix2 = Add({Unit::MakeSplit('-', 1)});
  const TransformationId c = Add(seq);
  const TransformationId none = Add({});
  const TransformationId none2 = Add({});
  ASSERT_EQ(store_.size(), 7u);
  const std::vector<ExamplePair> rows = {
      {"x-y", "y@"}, {"x-y", "y"}, {"p-q", "q@"}, {"p-q", ""}, {"k", "k@"}};
  const CoverageIndex index =
      ExpectPathsAgree(store_, units_, rows, /*dedup=*/false);
  EXPECT_FALSE(store_.sealed());
  ASSERT_EQ(store_.size(), 7u);
  for (const TransformationId t : {a, b, c}) {
    EXPECT_EQ(Rows(index, t), (std::vector<uint32_t>{0, 2})) << t;
  }
  for (const TransformationId t : {prefix, prefix2}) {
    EXPECT_EQ(Rows(index, t), (std::vector<uint32_t>{1})) << t;
  }
  for (const TransformationId t : {none, none2}) {
    EXPECT_EQ(Rows(index, t), (std::vector<uint32_t>{3})) << t;
  }
}

TEST_F(TrieCornerCaseTest, EmptyUnitOutputsAtSeveralDepths) {
  // Split(',', 1) yields "" on "a,,b" and Substr(1, 1) always yields "".
  const Unit empty_piece = Unit::MakeSplit(',', 1);
  const Unit nothing = Unit::MakeSubstr(1, 1);
  const Unit head = Unit::MakeSplit(',', 0);
  const Unit tail = Unit::MakeSplit(',', 2);
  const TransformationId t0 = Add({empty_piece, head});
  const TransformationId t1 = Add({head, empty_piece});
  const TransformationId t2 = Add({head, nothing, tail});
  const TransformationId t3 = Add({nothing, nothing, head, tail});
  const TransformationId t4 = Add({nothing});
  const TransformationId t5 = Add({head, empty_piece, nothing});
  const std::vector<ExamplePair> rows = {
      {"a,,b", "a"}, {"a,,b", "ab"}, {"a,,b", ""},
      {"a,x,b", "a"}, {"a,x,b", "ab"}, {"ab,,cd", "abcd"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, t0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, t1), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, t2), (std::vector<uint32_t>{1, 4, 5}));
  EXPECT_EQ(Rows(index, t3), (std::vector<uint32_t>{1, 4, 5}));
  EXPECT_EQ(Rows(index, t4), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, t5), (std::vector<uint32_t>{0}));
}

TEST_F(TrieCornerCaseTest, OneUnitMatchesAtDifferentOffsetsOnTwoBranches) {
  // Split('-', 1) is memoized once per row, then checked at offset 1 below
  // Literal("a") and at offset 2 below Literal("ac").
  const Unit u = Unit::MakeSplit('-', 1);
  const TransformationId short_branch = Add({Unit::MakeLiteral("a"), u, u});
  const TransformationId long_branch = Add({Unit::MakeLiteral("ac"), u});
  const TransformationId too_long = Add({Unit::MakeLiteral("acc"), u});
  const TransformationId u_first = Add({u, Unit::MakeLiteral("cc")});
  const std::vector<ExamplePair> rows = {
      {"x-c", "acc"}, {"x-d", "acc"}, {"x-c", "ccc"}, {"y-c", "ac"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, short_branch), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, long_branch), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, too_long), (std::vector<uint32_t>{}));
  EXPECT_EQ(Rows(index, u_first), (std::vector<uint32_t>{2}));
}

TEST_F(TrieCornerCaseTest, LiteralOnlyTransformations) {
  const TransformationId whole = Add({Unit::MakeLiteral("abc")});
  const TransformationId split =
      Add({Unit::MakeLiteral("a"), Unit::MakeLiteral("bc")});
  const TransformationId prefix = Add({Unit::MakeLiteral("ab")});
  const TransformationId three = Add({Unit::MakeLiteral("a"),
                                      Unit::MakeLiteral("b"),
                                      Unit::MakeLiteral("c")});
  const std::vector<ExamplePair> rows = {
      {"1", "abc"}, {"2", "ab"}, {"3", "abcd"}, {"4", "abc"}, {"5", ""}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  for (const TransformationId t : {whole, split, three}) {
    EXPECT_EQ(Rows(index, t), (std::vector<uint32_t>{0, 3})) << t;
  }
  EXPECT_EQ(Rows(index, prefix), (std::vector<uint32_t>{1}));
}

TEST_F(TrieCornerCaseTest, SequencesDeeperThanTheTrieFallBackToTheScan) {
  // Node depth is one byte; a longer sequence (never generated) sends the
  // whole call to the scan, with the scan's counters.
  const std::vector<Unit> deep(300, Unit::MakeLiteral("a"));
  const TransformationId t = Add(deep);
  const TransformationId shallow = Add({Unit::MakeLiteral("a")});
  const std::string target(300, 'a');  // rows hold views into it
  const std::vector<ExamplePair> rows = {{"1", target}, {"2", "a"}, {"3", "b"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, t), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, shallow), (std::vector<uint32_t>{1}));
}

TEST_F(TrieCornerCaseTest, DeepUnsealedStoreIsStillDeduplicated) {
  // The seal needs no walkable trie: the same build deduplicates a store
  // holding sequences deeper than the trie allows, and the scan follows.
  std::vector<Unit> deep(300, Unit::MakeLiteral("a"));
  std::vector<Unit> deep_b = deep;
  deep_b.back() = Unit::MakeLiteral("b");
  const std::vector<Unit> shallow = {Unit::MakeLiteral("a")};
  const std::vector<const std::vector<Unit>*> appends = {
      &deep, &shallow, &deep, &deep_b, &shallow, &deep};
  for (const std::vector<Unit>* seq : appends) Add(*seq);
  const std::string target(300, 'a');  // rows hold views into it
  const std::string target_b = target.substr(1) + "b";
  const std::vector<ExamplePair> rows = {
      {"1", target}, {"2", "a"}, {"3", target_b}};
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store_, units_, rows, DiscoveryOptions(), &stats);
  EXPECT_TRUE(store_.sealed());
  ASSERT_EQ(store_.size(), 3u);
  EXPECT_EQ(stats.unique_transformations, 3u);
  EXPECT_EQ(stats.cache_hits + stats.full_evaluations, 3u * rows.size());
  EXPECT_EQ(store_.Units(0).size(), 300u);
  EXPECT_EQ(store_.Units(1).size(), 1u);
  EXPECT_EQ(store_.Units(2).back(), units_.Intern(Unit::MakeLiteral("b")));
  EXPECT_EQ(Rows(index, 0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, 1), (std::vector<uint32_t>{1}));
  EXPECT_EQ(Rows(index, 2), (std::vector<uint32_t>{2}));
  EXPECT_TRUE(ExpectPathsAgree(store_, units_, rows) == index);
}

// ---- Root dispatch and the split table ------------------------------------

TEST_F(TrieCornerCaseTest, EmptySplitPieceAtTheRoot) {
  // An empty piece matches at offset 0 whatever target[0] is, so a Split
  // root child must be visited on every row.
  const TransformationId empty_then_rest =
      Add({Unit::MakeSplit(',', 0), Unit::MakeSplit(',', 1)});
  const TransformationId empty_middle =
      Add({Unit::MakeSplit(',', 1), Unit::MakeLiteral("x")});
  const TransformationId alone = Add({Unit::MakeSplit(',', 0)});
  const std::vector<ExamplePair> rows = {
      {",b", "b"}, {"a,b", "ab"}, {"a,,b", "x"}, {",", ""},
      {"a,b", "b"}, {"q,,", "x"}, {"", ""}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, empty_then_rest), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(Rows(index, empty_middle), (std::vector<uint32_t>{2, 5}));
  EXPECT_EQ(Rows(index, alone), (std::vector<uint32_t>{3, 6}));
}

TEST_F(TrieCornerCaseTest, LiteralFirstSequencesShareOrSplitTheirHeadByte) {
  const Unit tail = Unit::MakeSplit('-', 1);
  // "ab", "ac" and "a" share a head byte; "b" and "zz" do not.
  const TransformationId ab = Add({Unit::MakeLiteral("ab"), tail});
  const TransformationId ac = Add({Unit::MakeLiteral("ac"), tail});
  const TransformationId a = Add({Unit::MakeLiteral("a"), tail});
  const TransformationId b = Add({Unit::MakeLiteral("b"), tail});
  const TransformationId zz = Add({Unit::MakeLiteral("zz")});
  const std::vector<ExamplePair> rows = {
      {"x-q", "abq"}, {"x-q", "acq"}, {"x-cq", "acq"}, {"x-q", "bq"},
      {"x-q", "zz"},  {"x-q", "q"},   {"x-q", ""}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, ab), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, ac), (std::vector<uint32_t>{1}));
  EXPECT_EQ(Rows(index, a), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, b), (std::vector<uint32_t>{3}));
  EXPECT_EQ(Rows(index, zz), (std::vector<uint32_t>{4}));
}

TEST_F(TrieCornerCaseTest, FailingRootChildren) {
  const Unit rest = Unit::MakeLiteral("!");
  const TransformationId past_end = Add({Unit::MakeSubstr(5, 7), rest});
  const TransformationId reaches_end = Add({Unit::MakeSubstr(3, 4), rest});
  const TransformationId piece_past_count =
      Add({Unit::MakeSplitSubstr(',', 2, 0, 1), rest});
  const TransformationId last_piece =
      Add({Unit::MakeSplitSubstr(',', 1, 0, 1), rest});
  const TransformationId negative_piece =
      Add({Unit::MakeSplitSubstr(',', -1, 0, 1), rest});
  const TransformationId negative_split = Add({Unit::MakeSplit(',', -1)});
  const TransformationId negative_start = Add({Unit::MakeSubstr(-1, 1), rest});
  const TransformationId start_past_piece =
      Add({Unit::MakeSplitSubstr(',', 0, 2, 3), rest});
  const std::vector<ExamplePair> rows = {
      {"ab,cd", "c!"}, {"ab,cd", "d!"}, {"abcdefg", "fg!"},
      {"ab,cd", "a!"}, {"ab,cd", ""},   {"a,cd", "c!"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, past_end), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, reaches_end), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, piece_past_count), (std::vector<uint32_t>{}));
  EXPECT_EQ(Rows(index, last_piece), (std::vector<uint32_t>{0, 5}));
  for (const TransformationId t :
       {negative_piece, negative_split, negative_start, start_past_piece}) {
    EXPECT_EQ(Rows(index, t), (std::vector<uint32_t>{})) << t;
  }
}

TEST_F(TrieCornerCaseTest, EmptyRangeSubstrAtTheRoot) {
  // Substr(s, s) outputs "" wherever s <= |source|, so it cannot be
  // dispatched on a head byte.
  const TransformationId lead = Add({Unit::MakeSubstr(2, 2),
                                     Unit::MakeSubstr(0, 2)});
  const TransformationId alone = Add({Unit::MakeSubstr(3, 3)});
  const TransformationId piece = Add({Unit::MakeSplitSubstr(',', 1, 1, 1),
                                      Unit::MakeSplit(',', 0)});
  const std::vector<ExamplePair> rows = {
      {"abc", "ab"}, {"a", "a"}, {"abc", ""}, {"ab", ""}, {"x,y", "x"},
      {"x", "x"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, lead), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, alone), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, piece), (std::vector<uint32_t>{4}));
}

TEST_F(TrieCornerCaseTest, EmptyTargetVisitsOnlyUnitsThatCanOutputNothing) {
  const TransformationId root = Add({});
  const TransformationId literal = Add({Unit::MakeLiteral("a")});
  const TransformationId empty_literal = Add({Unit::MakeLiteral("")});
  const TransformationId substr = Add({Unit::MakeSubstr(0, 1)});
  const TransformationId empty_substr = Add({Unit::MakeSubstr(0, 0)});
  const TransformationId split = Add({Unit::MakeSplit(';', 1)});
  const std::vector<ExamplePair> rows = {
      {"a;", ""}, {"a", ""}, {"a;b", "a"}, {"", ""}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, root), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(Rows(index, literal), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, empty_literal), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(Rows(index, substr), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, empty_substr), (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(Rows(index, split), (std::vector<uint32_t>{0}));
}

TEST_F(TrieCornerCaseTest, HighBytesInLiteralsDelimitersAndHeads) {
  // Head bytes and delimiters >= 0x80: a signed comparison would send
  // these rows past every group they belong to.
  const char dot = '\xB7';
  const TransformationId literal =
      Add({Unit::MakeLiteral("\xC3\xA9"), Unit::MakeSplit(dot, 1)});
  const TransformationId piece =
      Add({Unit::MakeSplitSubstr(dot, 1, 0, 2), Unit::MakeLiteral("!")});
  const TransformationId substr = Add({Unit::MakeSubstr(1, 3)});
  const TransformationId split_then_literal =
      Add({Unit::MakeSplit(dot, 0), Unit::MakeLiteral("\xFF")});
  const std::vector<ExamplePair> rows = {
      {"a\xB7xy", "\xC3\xA9xy"}, {"a\xB7\xE9\xFFz", "\xE9\xFF!"},
      {"\xFF\xE9\x80", "\xE9\x80"}, {"q\xB7r", "q\xFF"},
      {"\xB7r", "\xFF"}};
  const CoverageIndex index = ExpectPathsAgree(store_, units_, rows);
  EXPECT_EQ(Rows(index, literal), (std::vector<uint32_t>{0}));
  EXPECT_EQ(Rows(index, piece), (std::vector<uint32_t>{1}));
  EXPECT_EQ(Rows(index, substr), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Rows(index, split_then_literal), (std::vector<uint32_t>{3, 4}));
}

// Random stores of 1-3-unit Split/SplitSubstr/Substr/Literal sequences (and
// a few TwoCharSplitSubstr, which the walk always visits) over random
// sources: delimiters at both ends and in runs, piece indexes from -1 to one
// past the piece count, empty and failing ranges, bytes >= 0x80.
// About half the targets are some stored sequence's output on the row's
// source, so rows get covered.
TEST(RandomSplitStores, WalkMatchesScanAtEveryThreadCount) {
  constexpr std::string_view kDelims = {",; \xE9", 4};
  constexpr std::string_view kBytes = {"ab,; \xE9\x80", 7};
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<std::string> sources(40);
    for (std::string& src : sources) {
      src = rng.RandomString(rng.Uniform(10), kBytes);
      if (rng.Bernoulli(0.3)) src.insert(0, 1, rng.PickChar(kDelims));
      if (rng.Bernoulli(0.3)) src.push_back(rng.PickChar(kDelims));
      if (rng.Bernoulli(0.3)) {
        src.insert(rng.Uniform(src.size() + 1), 2, rng.PickChar(kDelims));
      }
    }
    const auto max_pieces = [&](char delim) {
      size_t most = 1;
      for (const std::string& src : sources) {
        most = std::max(most, CountSplitPieces(src, delim));
      }
      return static_cast<int64_t>(most);
    };
    const auto random_unit = [&]() {
      const char delim = rng.PickChar(kDelims);
      const auto index =
          static_cast<int32_t>(rng.UniformInt(-1, max_pieces(delim)));
      const auto start = static_cast<int32_t>(rng.UniformInt(-1, 5));
      const auto end = static_cast<int32_t>(start + rng.UniformInt(-1, 4));
      switch (rng.Uniform(5)) {
        case 0:
          return Unit::MakeLiteral(rng.RandomString(rng.Uniform(3), kBytes));
        case 1:
          return Unit::MakeSubstr(start, end);
        case 2:
          return Unit::MakeSplit(delim, index);
        case 3:
          return Unit::MakeSplitSubstr(delim, index, start, end);
        default:
          return Unit::MakeTwoCharSplitSubstr(delim, rng.PickChar(kDelims),
                                              index, start, end);
      }
    };
    UnitInterner units;
    std::vector<UnitId> pool;
    for (int k = 0; k < 40; ++k) pool.push_back(units.Intern(random_unit()));
    // Each distinct sequence once, in first-draw order.
    TransformationStore store;
    std::set<std::vector<UnitId>> drawn;
    for (int k = 0; k < 300; ++k) {
      std::vector<UnitId> seq(1 + rng.Uniform(3));
      for (UnitId& u : seq) u = rng.PickOne(pool);
      if (drawn.insert(seq).second) store.Append(seq);
    }
    std::vector<std::string> targets;
    for (const std::string& src : sources) {
      std::string target = rng.RandomString(rng.Uniform(5), kBytes);
      if (rng.Bernoulli(0.5)) {
        const auto t =
            static_cast<TransformationId>(rng.Uniform(store.size()));
        std::string produced;
        bool applies = true;
        for (const UnitId u : store.Units(t)) {
          const auto out = units.Get(u).Eval(src);
          if (!out.has_value()) {
            applies = false;
            break;
          }
          produced += *out;
        }
        if (applies) target = std::move(produced);
      }
      targets.push_back(std::move(target));
    }
    std::vector<ExamplePair> rows;
    for (size_t r = 0; r < sources.size(); ++r) {
      rows.push_back({sources[r], targets[r]});
    }
    const CoverageIndex oracle = ExpectPathsAgree(store, units, rows);
    EXPECT_GT(oracle.TotalPairs(), 0u);
  }
}

}  // namespace
}  // namespace tj
