// Identity suite for solution compilation (paper §4.1.6): the count-bucket
// greedy set cover and the histogram top-k must reproduce the binary-heap
// greedy and the partial_sort top-k they replaced (kept here as oracles)
// on every set system: same selected ids and coverages, marginal gains,
// covered rows and top-k lists. Set systems are built through
// ComputeCoverage: unit k is Split(',', k) and every target is "1", so unit
// k covers exactly the rows whose piece k is "1".
// Run with `ctest -L coverage`.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/coverage.h"
#include "core/set_cover.h"

namespace tj {
namespace {

/// The binary-heap lazy greedy: pop the (count, smaller id) maximum,
/// recompute its gain, re-insert it if the gain fell below the next count.
SetCoverResult HeapGreedySetCover(const CoverageIndex& index, size_t num_rows,
                                  uint32_t min_support) {
  struct HeapEntry {
    uint32_t count;
    TransformationId id;
  };
  const auto below = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.count != b.count) return a.count < b.count;
    return a.id > b.id;  // smaller id wins ties
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(below)>
      heap(below);
  for (TransformationId t = 0; t < index.num_transformations(); ++t) {
    const uint32_t c = index.Count(t);
    if (c >= min_support && c > 0) heap.push({c, t});
  }
  SetCoverResult result;
  result.covered.Resize(num_rows);
  while (!heap.empty() && result.covered_rows < num_rows) {
    const HeapEntry top = heap.top();
    heap.pop();
    uint32_t gain = 0;
    for (uint32_t row : index.RowsOf(top.id)) {
      if (!result.covered.Test(row)) ++gain;
    }
    if (gain == 0) continue;
    if (!heap.empty() && gain < heap.top().count) {
      heap.push({gain, top.id});
      continue;
    }
    for (uint32_t row : index.RowsOf(top.id)) result.covered.Set(row);
    result.selected.push_back({top.id, index.Count(top.id)});
    result.marginal_gains.push_back(gain);
    result.covered_rows += gain;
  }
  return result;
}

/// Every eligible transformation materialized, then partial_sort.
std::vector<RankedTransformation> PartialSortTopK(const CoverageIndex& index,
                                                  size_t k,
                                                  uint32_t min_support) {
  std::vector<RankedTransformation> all;
  for (TransformationId t = 0; t < index.num_transformations(); ++t) {
    const uint32_t c = index.Count(t);
    if (c >= min_support && c > 0) all.push_back({t, c});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.coverage != b.coverage)
                        return a.coverage > b.coverage;
                      return a.id < b.id;
                    });
  all.resize(keep);
  return all;
}

using Ranked = std::vector<std::pair<TransformationId, uint32_t>>;

Ranked Flatten(const std::vector<RankedTransformation>& ranked) {
  Ranked out;
  for (const RankedTransformation& r : ranked) {
    out.emplace_back(r.id, r.coverage);
  }
  return out;
}

void ExpectSameCover(const SetCoverResult& got, const SetCoverResult& want) {
  EXPECT_EQ(Flatten(got.selected), Flatten(want.selected));
  EXPECT_EQ(got.marginal_gains, want.marginal_gains);
  EXPECT_TRUE(got.covered == want.covered);
  EXPECT_EQ(got.covered_rows, want.covered_rows);
}

/// A set system over `member.size()` rows: unit k covers row r iff
/// member[r][k]. Owns the row strings the example pairs view.
struct SetSystem {
  std::vector<std::string> sources;
  std::vector<ExamplePair> rows;
  UnitInterner units;
  TransformationStore store;
  CoverageIndex index;

  SetSystem(const std::vector<std::vector<bool>>& member, size_t num_sets) {
    for (const std::vector<bool>& row : member) {
      std::string src;
      for (size_t k = 0; k < num_sets; ++k) {
        if (k > 0) src += ',';
        src += row[k] ? '1' : '0';
      }
      sources.push_back(std::move(src));
    }
    for (const std::string& src : sources) rows.push_back({src, "1"});
    for (size_t k = 0; k < num_sets; ++k) {
      store.Append(std::vector<UnitId>{
          units.Intern(Unit::MakeSplit(',', static_cast<int32_t>(k)))});
    }
    DiscoveryStats stats;
    index = ComputeCoverage(store, units, rows, DiscoveryOptions(), &stats);
  }
};

// Random systems: 1-40 rows, 1-60 sets. Each set draws a density from a
// small list (so counts tie often) or repeats an earlier set's rows (equal
// sets tie on every recomputed gain too); about a fifth of the rows are in
// no set.
TEST(SolutionIdentity, BucketsMatchHeapAndPartialSortOnRandomSystems) {
  constexpr double kDensities[] = {0.03, 0.1, 0.25, 0.5, 0.9};
  size_t uncovered_rows = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto num_rows = static_cast<size_t>(rng.UniformInt(1, 40));
    const auto num_sets = static_cast<size_t>(rng.UniformInt(1, 60));
    std::vector<std::vector<bool>> member(num_rows,
                                          std::vector<bool>(num_sets, false));
    std::vector<bool> empty_row(num_rows);
    for (size_t r = 0; r < num_rows; ++r) empty_row[r] = rng.Bernoulli(0.2);
    for (size_t k = 0; k < num_sets; ++k) {
      const bool copy = k > 0 && rng.Bernoulli(0.2);
      const size_t from = copy ? rng.Uniform(k) : 0;
      const double density = kDensities[rng.Uniform(std::size(kDensities))];
      for (size_t r = 0; r < num_rows; ++r) {
        if (empty_row[r]) continue;
        member[r][k] = copy ? member[r][from] : rng.Bernoulli(density);
      }
    }
    const SetSystem system(member, num_sets);
    ASSERT_EQ(system.index.num_transformations(), num_sets);
    for (uint32_t min_support = 1; min_support <= 3; ++min_support) {
      SCOPED_TRACE(min_support);
      const SetCoverResult cover =
          GreedySetCover(system.index, num_rows, {min_support});
      ExpectSameCover(cover,
                      HeapGreedySetCover(system.index, num_rows, min_support));
      if (min_support == 1) uncovered_rows += num_rows - cover.covered_rows;
      for (size_t k : {size_t{0}, size_t{1}, size_t{10}, num_sets + 5}) {
        EXPECT_EQ(Flatten(TopKByCoverage(system.index, k, min_support)),
                  Flatten(PartialSortTopK(system.index, k, min_support)))
            << "k=" << k;
      }
    }
  }
  EXPECT_GT(uncovered_rows, 0u);
}

// Set 1 (4 rows) is selected first. Set 0 (3 rows) then gains only row 2
// and is re-inserted at count 1, below set 2 (2 rows), which is selected
// next. Bucket 1 now holds set 0 (re-inserted) and set 3 (unread); both
// gain row 2, and the smaller id must win, as it does in the heap.
// Reading the unread id first would select set 3 instead.
TEST(SolutionIdentity, ReinsertedIdBelowUnreadIdsWinsItsBucket) {
  const std::vector<std::vector<bool>> member = {
      {true, true, false, false},  {true, true, false, false},
      {true, false, false, true},  {false, true, false, false},
      {false, true, true, false},  {false, false, true, false},
  };
  const SetSystem system(member, 4);
  const SetCoverResult cover = GreedySetCover(system.index, 6, {});
  EXPECT_EQ(Flatten(cover.selected), (Ranked{{1, 4}, {2, 2}, {0, 3}}));
  EXPECT_EQ(cover.marginal_gains, (std::vector<uint32_t>{4, 1, 1}));
  EXPECT_EQ(cover.covered_rows, 6u);
  ExpectSameCover(cover, HeapGreedySetCover(system.index, 6, 1));
}

}  // namespace
}  // namespace tj
