// Tests for the coverage engine (negative-unit cache semantics, §4.1.5) and
// the greedy set-cover solver (§4.1.6).

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/set_cover.h"

namespace tj {
namespace {

/// Fixture building a tiny controlled transformation store.
class CoverageTest : public ::testing::Test {
 protected:
  TransformationId Add(std::vector<Unit> units) {
    std::vector<UnitId> ids;
    for (const auto& u : units) ids.push_back(units_.Intern(u));
    return store_.Append(ids);
  }

  CoverageIndex Compute(const std::vector<ExamplePair>& rows,
                        bool neg_cache = true, bool paper_scan = false) {
    DiscoveryOptions options;
    options.enable_neg_cache = neg_cache;
    options.paper_coverage_scan = paper_scan;
    stats_ = DiscoveryStats();
    return ComputeCoverage(store_, units_, rows, options, &stats_);
  }

  UnitInterner units_;
  TransformationStore store_;
  DiscoveryStats stats_;
};

TEST_F(CoverageTest, CountsExactCoverage) {
  const TransformationId split = Add({Unit::MakeSplit(',', 0)});
  const TransformationId lit = Add({Unit::MakeLiteral("beta")});
  const std::vector<ExamplePair> rows = {
      {"alpha,1", "alpha"}, {"beta,2", "beta"}, {"gamma,3", "gamma"}};
  const CoverageIndex index = Compute(rows);
  EXPECT_EQ(index.Count(split), 3u);
  EXPECT_EQ(index.Count(lit), 1u);
  EXPECT_EQ(index.RowsOf(lit)[0], 1u);
}

TEST_F(CoverageTest, RowsAreAscendingWithinTransformation) {
  const TransformationId split = Add({Unit::MakeSplit('|', 1)});
  const std::vector<ExamplePair> rows = {
      {"a|x", "x"}, {"b|y", "y"}, {"c|z", "z"}};
  const CoverageIndex index = Compute(rows);
  const auto covered = index.RowsOf(split);
  ASSERT_EQ(covered.size(), 3u);
  EXPECT_TRUE(covered[0] < covered[1] && covered[1] < covered[2]);
}

TEST_F(CoverageTest, CacheOnAndOffAgree) {
  // Property: the negative-unit cache is a pure optimization. The last two
  // transformations share a failing unit so the cache actually fires.
  Add({Unit::MakeSplit(',', 0)});
  Add({Unit::MakeSubstr(0, 3)});
  Add({Unit::MakeLiteral("xy"), Unit::MakeSplit(',', 1)});
  Add({Unit::MakeSplitSubstr(',', 1, 0, 2)});
  Add({Unit::MakeSplit('#', 7)});
  Add({Unit::MakeSplit('#', 7), Unit::MakeLiteral("z")});
  const std::vector<ExamplePair> rows = {
      {"abc,de", "abc"}, {"xy,zw", "xyzw"}, {"q,r", "q"}, {"zzz", "zzz"}};
  const CoverageIndex with_cache = Compute(rows, true);
  const uint64_t hits = stats_.cache_hits;
  const CoverageIndex without_cache = Compute(rows, false);
  EXPECT_EQ(stats_.cache_hits, 0u);
  ASSERT_EQ(with_cache.num_transformations(),
            without_cache.num_transformations());
  for (TransformationId t = 0; t < with_cache.num_transformations(); ++t) {
    EXPECT_EQ(with_cache.Count(t), without_cache.Count(t));
  }
  EXPECT_GT(hits, 0u);  // the cache actually fired on this workload
}

TEST_F(CoverageTest, CacheHitsSkipKnownBadUnits) {
  // Two transformations sharing a failing unit: on the paper's row-major
  // scan (which defines these counters) the second try must be a cache hit.
  const UnitId bad = units_.Intern(Unit::MakeSplit('#', 5));
  store_.Append(std::vector<UnitId>{bad});
  store_.Append(
      std::vector<UnitId>{bad, units_.Intern(Unit::MakeLiteral("x"))});
  const std::vector<ExamplePair> rows = {{"abc", "abc"}};
  Compute(rows, /*neg_cache=*/true, /*paper_scan=*/true);
  EXPECT_EQ(stats_.cache_hits, 1u);
  EXPECT_EQ(stats_.full_evaluations, 1u);
}

TEST_F(CoverageTest, TrieWalkPrunesSharedFailingPrefixOnce) {
  // The same store on the default trie walk: both transformations hang
  // below the failing unit's node, so one evaluation cuts off both and
  // neither terminal is reached.
  const UnitId bad = units_.Intern(Unit::MakeSplit('#', 5));
  store_.Append(std::vector<UnitId>{bad});
  store_.Append(
      std::vector<UnitId>{bad, units_.Intern(Unit::MakeLiteral("x"))});
  const std::vector<ExamplePair> rows = {{"abc", "abc"}};
  Compute(rows);
  EXPECT_EQ(stats_.cache_hits, 2u);
  EXPECT_EQ(stats_.full_evaluations, 0u);
  EXPECT_EQ(stats_.unit_evals, 1u);
}

TEST_F(CoverageTest, UnitOutputMustMatchAtOffsetNotJustAnywhere) {
  // Both unit outputs occur in the target, but in the wrong order.
  Add({Unit::MakeSplit(',', 1), Unit::MakeSplit(',', 0)});
  const std::vector<ExamplePair> rows = {{"ab,cd", "abcd"}};
  const CoverageIndex index = Compute(rows);
  EXPECT_EQ(index.Count(0), 0u);
}

TEST_F(CoverageTest, EmptyStoreYieldsEmptyIndex) {
  const CoverageIndex index = Compute({{"a", "a"}});
  EXPECT_EQ(index.num_transformations(), 0u);
  EXPECT_EQ(index.TotalPairs(), 0u);
}

// ---- Set cover (indexes built through ComputeCoverage over crafted rows:
// a Literal transformation covers exactly the rows with that target) ----

TEST(SetCover, GreedyPicksLargestFirst) {
  UnitInterner units;
  TransformationStore store;
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeSplit('-', 1))});
  const std::vector<ExamplePair> rows = {
      {"x-A", "A"}, {"y-A", "A"}, {"z-A", "A"}, {"w-B", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  // t2 (Split) covers all 4; t0 covers 3; t1 covers 1.
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), SetCoverOptions{});
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].id, 2u);
  EXPECT_EQ(result.covered_rows, 4u);
}

TEST(SetCover, SelectsMultipleSetsWhenNeeded) {
  UnitInterner units;
  TransformationStore store;
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  const std::vector<ExamplePair> rows = {
      {"1", "A"}, {"2", "A"}, {"3", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), SetCoverOptions{});
  ASSERT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.selected[0].id, 0u);  // larger set first
  EXPECT_EQ(result.marginal_gains[0], 2u);
  EXPECT_EQ(result.marginal_gains[1], 1u);
  EXPECT_EQ(result.covered_rows, 3u);
}

TEST(SetCover, MinSupportExcludesRareSets) {
  UnitInterner units;
  TransformationStore store;
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  const std::vector<ExamplePair> rows = {
      {"1", "A"}, {"2", "A"}, {"3", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  SetCoverOptions cover_options;
  cover_options.min_support = 2;
  const SetCoverResult result =
      GreedySetCover(index, rows.size(), cover_options);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].id, 0u);
  EXPECT_EQ(result.covered_rows, 2u);  // row 2 stays uncovered
}

TEST(TopK, OrderedByCoverageThenId) {
  UnitInterner units;
  TransformationStore store;
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("B"))});
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeLiteral("A"))});
  store.Append(std::vector<UnitId>{units.Intern(Unit::MakeSplit('-', 0))});
  const std::vector<ExamplePair> rows = {
      {"A-1", "A"}, {"A-2", "A"}, {"B-1", "B"}, {"B-2", "B"}};
  DiscoveryOptions options;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units, rows, options, &stats);
  const auto top = TopKByCoverage(index, 10, 1);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 2u);  // Split covers 4
  EXPECT_EQ(top[0].coverage, 4u);
  // Literal('B') and Literal('A') both cover 2: lower id first.
  EXPECT_EQ(top[1].id, 0u);
  EXPECT_EQ(top[2].id, 1u);
}

}  // namespace
}  // namespace tj
