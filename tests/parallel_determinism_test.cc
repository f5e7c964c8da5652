// Determinism tests for the parallel discovery pipeline: every phase must
// produce results bit-identical to the serial reference path for any thread
// count (the subsystem's merge-in-row-order contract).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/discovery.h"
#include "core/example.h"
#include "datagen/synth.h"
#include "index/inverted_index.h"
#include "join/join_engine.h"
#include "match/row_matcher.h"
#include "text/ngram.h"

namespace tj {
namespace {

/// A synthetic dataset together with its golden example pairs. ExamplePairs
/// are views into the dataset's column arenas, so the dataset rides along
/// (moving the holder keeps the views valid — arena buffers migrate).
struct SynthRowsHolder {
  SynthDataset dataset;
  std::vector<ExamplePair> rows;
};

SynthRowsHolder SynthRows(size_t rows, uint64_t seed) {
  SynthRowsHolder holder;
  holder.dataset = GenerateSynth(SynthN(rows, seed));
  holder.rows = MakeExamplePairs(holder.dataset.pair.SourceColumn(),
                                 holder.dataset.pair.TargetColumn(),
                                 holder.dataset.pair.golden.pairs());
  return holder;
}

void ExpectIdenticalCoverage(const CoverageIndex& a, const CoverageIndex& b) {
  ASSERT_EQ(a.num_transformations(), b.num_transformations());
  ASSERT_EQ(a.TotalPairs(), b.TotalPairs());
  for (TransformationId t = 0; t < a.num_transformations(); ++t) {
    ASSERT_EQ(a.Count(t), b.Count(t)) << "transformation " << t;
    const auto rows_a = a.RowsOf(t);
    const auto rows_b = b.RowsOf(t);
    for (size_t i = 0; i < rows_a.size(); ++i) {
      ASSERT_EQ(rows_a[i], rows_b[i]) << "transformation " << t << " pos " << i;
    }
  }
}

void ExpectIdenticalCounters(const DiscoveryStats& a,
                             const DiscoveryStats& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.skeletons, b.skeletons);
  EXPECT_EQ(a.placeholders, b.placeholders);
  EXPECT_EQ(a.generated_transformations, b.generated_transformations);
  EXPECT_EQ(a.unique_transformations, b.unique_transformations);
  EXPECT_EQ(a.rows_capped, b.rows_capped);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.full_evaluations, b.full_evaluations);
  EXPECT_EQ(a.unit_evals, b.unit_evals);
  EXPECT_EQ(a.covering_pairs, b.covering_pairs);
}

TEST(ParallelCoverage, BitIdenticalCsrAcrossThreadCounts) {
  const auto holder = SynthRows(48, 11);
  const std::vector<ExamplePair>& rows = holder.rows;
  DiscoveryOptions serial;
  serial.num_threads = 1;
  // Not const: ComputeCoverage takes the (already sealed) store below.
  DiscoveryResult base = DiscoverTransformations(rows, serial);
  ASSERT_GT(base.store.size(), 0u);

  // Both coverage paths: each path's counters are exact at every thread
  // count (they differ between the paths, the index does not).
  for (bool paper_scan : {false, true}) {
    DiscoveryOptions reference = serial;
    reference.paper_coverage_scan = paper_scan;
    DiscoveryStats base_stats;
    const CoverageIndex base_index = ComputeCoverage(
        base.store, base.units, rows, reference, &base_stats);
    ExpectIdenticalCoverage(base.coverage, base_index);
    EXPECT_EQ(base_stats.covering_pairs, base.stats.covering_pairs);
    for (int threads : {2, 3, 8}) {
      DiscoveryOptions options = reference;
      options.num_threads = threads;
      DiscoveryStats stats;
      const CoverageIndex index =
          ComputeCoverage(base.store, base.units, rows, options, &stats);
      ExpectIdenticalCoverage(base.coverage, index);
      EXPECT_EQ(stats.cache_hits, base_stats.cache_hits) << threads;
      EXPECT_EQ(stats.full_evaluations, base_stats.full_evaluations)
          << threads;
      EXPECT_EQ(stats.unit_evals, base_stats.unit_evals) << threads;
      EXPECT_EQ(stats.covering_pairs, base_stats.covering_pairs) << threads;
    }
  }
}

TEST(ParallelCoverage, NegCacheAblationAlsoIdentical) {
  const auto holder = SynthRows(24, 7);
  const std::vector<ExamplePair>& rows = holder.rows;
  DiscoveryOptions serial;
  serial.num_threads = 1;
  serial.enable_neg_cache = false;
  DiscoveryResult base = DiscoverTransformations(rows, serial);

  // Without the cache both settings of paper_coverage_scan run the scan.
  for (bool paper_scan : {false, true}) {
    DiscoveryOptions parallel = serial;
    parallel.num_threads = 8;
    parallel.paper_coverage_scan = paper_scan;
    DiscoveryStats stats;
    const CoverageIndex index =
        ComputeCoverage(base.store, base.units, rows, parallel, &stats);
    ExpectIdenticalCoverage(base.coverage, index);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.full_evaluations, base.stats.full_evaluations);
    EXPECT_EQ(stats.unit_evals, base.stats.unit_evals);
    EXPECT_EQ(stats.covering_pairs, base.stats.covering_pairs);
  }
}

TEST(ParallelDiscovery, EndToEndIdenticalAcrossThreadCounts) {
  const auto holder = SynthRows(48, 42);
  const std::vector<ExamplePair>& rows = holder.rows;
  DiscoveryOptions serial;
  serial.num_threads = 1;
  const DiscoveryResult base = DiscoverTransformations(rows, serial);
  ASSERT_GT(base.store.size(), 0u);
  ASSERT_FALSE(base.cover.selected.empty());

  for (int threads : {2, 8}) {
    DiscoveryOptions options;
    options.num_threads = threads;
    const DiscoveryResult result = DiscoverTransformations(rows, options);

    // Stores: same transformations with the same ids (same intern order).
    ASSERT_EQ(result.units.size(), base.units.size()) << threads;
    ASSERT_EQ(result.store.size(), base.store.size()) << threads;
    for (TransformationId t = 0; t < base.store.size(); ++t) {
      ASSERT_EQ(result.store.Get(t).ToString(result.units),
                base.store.Get(t).ToString(base.units))
          << "transformation " << t << " with " << threads << " threads";
    }

    ExpectIdenticalCoverage(base.coverage, result.coverage);
    ExpectIdenticalCounters(base.stats, result.stats);

    // Solutions: identical top-k and greedy covering set.
    ASSERT_EQ(result.top.size(), base.top.size());
    for (size_t i = 0; i < base.top.size(); ++i) {
      EXPECT_EQ(result.top[i].id, base.top[i].id);
      EXPECT_EQ(result.top[i].coverage, base.top[i].coverage);
    }
    ASSERT_EQ(result.cover.selected.size(), base.cover.selected.size());
    for (size_t i = 0; i < base.cover.selected.size(); ++i) {
      EXPECT_EQ(result.cover.selected[i].id, base.cover.selected[i].id);
      EXPECT_EQ(result.cover.selected[i].coverage,
                base.cover.selected[i].coverage);
    }
    EXPECT_EQ(result.cover.covered_rows, base.cover.covered_rows);
  }
}

TEST(ParallelDiscovery, NoDedupAblationIdentical) {
  // With dedup disabled the store keeps every generated duplicate; the
  // shard merge must replay them all in row order.
  const auto holder = SynthRows(12, 3);
  const std::vector<ExamplePair>& rows = holder.rows;
  DiscoveryOptions serial;
  serial.num_threads = 1;
  serial.enable_dedup = false;
  const DiscoveryResult base = DiscoverTransformations(rows, serial);

  DiscoveryOptions parallel = serial;
  parallel.num_threads = 4;
  const DiscoveryResult result = DiscoverTransformations(rows, parallel);
  ASSERT_EQ(result.store.size(), base.store.size());
  EXPECT_EQ(result.stats.generated_transformations,
            base.stats.generated_transformations);
  EXPECT_EQ(result.stats.unique_transformations,
            base.stats.unique_transformations);
  ExpectIdenticalCoverage(base.coverage, result.coverage);
}

TEST(ParallelDiscovery, ZeroMeansHardwareConcurrency) {
  const auto holder = SynthRows(16, 5);
  const std::vector<ExamplePair>& rows = holder.rows;
  DiscoveryOptions serial;
  serial.num_threads = 1;
  DiscoveryOptions hw;
  hw.num_threads = 0;
  const DiscoveryResult a = DiscoverTransformations(rows, serial);
  const DiscoveryResult b = DiscoverTransformations(rows, hw);
  ASSERT_EQ(a.store.size(), b.store.size());
  ExpectIdenticalCoverage(a.coverage, b.coverage);
  ExpectIdenticalCounters(a.stats, b.stats);
}

TEST(DiscoveryStatsTimes, WallClockPhasesAndCpuCounters) {
  // time_* fields are wall clock per phase at EVERY thread count (PR 1
  // summed worker seconds into them instead); cpu_* carries the summed
  // per-worker seconds. Wall-phase intervals nest inside the total, so
  // their sum is bounded by it; small epsilon for clock jitter.
  const auto holder = SynthRows(48, 13);
  const std::vector<ExamplePair>& rows = holder.rows;
  for (int threads : {1, 4}) {
    DiscoveryOptions options;
    options.num_threads = threads;
    const DiscoveryResult result = DiscoverTransformations(rows, options);
    const DiscoveryStats& s = result.stats;

    const double wall_sum = s.time_placeholder_gen + s.time_unit_extraction +
                            s.time_duplicate_removal + s.time_apply +
                            s.time_solution;
    EXPECT_LE(wall_sum, s.time_total + 1e-3) << threads << " threads";
    EXPECT_GT(s.time_apply, 0.0) << threads << " threads";
    EXPECT_GT(s.time_placeholder_gen + s.time_unit_extraction +
                  s.time_duplicate_removal,
              0.0)
        << threads << " threads";

    // Worker-second ledger: populated for every phase that did work, and
    // cpu_total is exactly the sum of its phases.
    EXPECT_GT(s.cpu_apply, 0.0) << threads << " threads";
    EXPECT_GT(s.cpu_placeholder_gen, 0.0) << threads << " threads";
    const double cpu_sum = s.cpu_placeholder_gen + s.cpu_unit_extraction +
                           s.cpu_duplicate_removal + s.cpu_apply +
                           s.cpu_solution;
    EXPECT_DOUBLE_EQ(s.cpu_total, cpu_sum) << threads << " threads";
  }
}

TEST(ParallelIndexBuild, IdenticalPostingsAcrossThreadCounts) {
  const SynthDataset ds = GenerateSynth(SynthN(60, 19));
  const Column& column = ds.pair.SourceColumn();
  const NgramInvertedIndex serial = NgramInvertedIndex::Build(column);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    const NgramInvertedIndex parallel =
        NgramInvertedIndex::Build(column, &pool);
    ASSERT_EQ(parallel.num_rows(), serial.num_rows());
    ASSERT_EQ(parallel.num_grams(), serial.num_grams()) << threads;
    ASSERT_EQ(parallel.TotalPostings(), serial.TotalPostings()) << threads;
    // The CSR layout makes the determinism contract stronger than "same
    // content": gram ids (first-seen order) must line up too.
    for (uint32_t id = 0; id < serial.num_grams(); ++id) {
      ASSERT_EQ(parallel.gram(id), serial.gram(id))
          << "gram id " << id << " with " << threads << " threads";
    }
    for (uint32_t id = 0; id < serial.num_grams(); ++id) {
      const std::span<const uint32_t> rows = serial.postings(id);
      const std::span<const uint32_t> other = parallel.Lookup(serial.gram(id));
      ASSERT_TRUE(std::equal(other.begin(), other.end(), rows.begin(),
                             rows.end()))
          << "gram '" << std::string(serial.gram(id)) << "'";
    }
  }
}

using ReferencePostingsMap =
    std::unordered_map<std::string, std::vector<uint32_t>, StringHash,
                       StringEq>;

/// The map-based builder the flat CSR layout replaced, kept as the oracle:
/// one heap string and one growable posting vector per distinct gram,
/// ascending per-row-deduplicated postings, rows ASCII-lowercased.
ReferencePostingsMap BuildReferencePostings(const Column& column) {
  ReferencePostingsMap postings;
  for (size_t row = 0; row < column.size(); ++row) {
    const std::string text = ToLowerAscii(column.Get(row));
    for (size_t n = kMinGram; n <= kMaxGram && n <= text.size(); ++n) {
      ForEachNgram(text, n, [&](std::string_view gram) {
        auto it = postings.find(gram);
        if (it == postings.end()) {
          it = postings.emplace(std::string(gram), std::vector<uint32_t>())
                   .first;
        }
        if (it->second.empty() ||
            it->second.back() != static_cast<uint32_t>(row)) {
          it->second.push_back(static_cast<uint32_t>(row));
        }
      });
    }
  }
  return postings;
}

TEST(ParallelIndexBuild, CsrMatchesMapReferenceBuilder) {
  // The flat CSR index must agree gram-for-gram with the map-based
  // reference builder (the pre-refactor storage model). Every other row is
  // upper-cased, so both must lower it.
  const SynthDataset ds = GenerateSynth(SynthN(40, 29));
  Column column("c");
  for (size_t row = 0; row < ds.pair.SourceColumn().size(); ++row) {
    std::string cell(ds.pair.SourceColumn().Get(row));
    if (row % 2 == 1) {
      for (char& c : cell) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    }
    column.Append(cell);
  }
  const NgramInvertedIndex index = NgramInvertedIndex::Build(column);
  const ReferencePostingsMap reference = BuildReferencePostings(column);
  ASSERT_EQ(index.num_grams(), reference.size());
  size_t reference_postings = 0;
  for (const auto& [gram, rows] : reference) {
    reference_postings += rows.size();
    const std::span<const uint32_t> got = index.Lookup(gram);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), rows.begin(), rows.end()))
        << "gram '" << gram << "'";
  }
  EXPECT_EQ(index.TotalPostings(), reference_postings);
}

TEST(ParallelRowMatch, PairsIdenticalAcrossThreadCounts) {
  const SynthDataset ds = GenerateSynth(SynthN(40, 23));
  RowMatchOptions serial;
  serial.num_threads = 1;
  const RowMatchResult base = FindJoinablePairs(
      ds.pair.SourceColumn(), ds.pair.TargetColumn(), serial);

  RowMatchOptions parallel;
  parallel.num_threads = 8;
  const RowMatchResult result = FindJoinablePairs(
      ds.pair.SourceColumn(), ds.pair.TargetColumn(), parallel);
  ASSERT_EQ(result.pairs.size(), base.pairs.size());
  for (size_t i = 0; i < base.pairs.size(); ++i) {
    EXPECT_EQ(result.pairs[i], base.pairs[i]);
  }
  EXPECT_EQ(result.unmatched_source_rows, base.unmatched_source_rows);
}

TEST(SharedPool, TransformJoinConstructsExactlyOnePool) {
  // A parallel TransformJoin shares ONE pool across its index builds, row
  // scan, generation, and coverage (it used to spawn one per phase); a
  // serial join constructs none. Results match the serial run either way.
  const SynthDataset ds = GenerateSynth(SynthN(40, 17));
  JoinOptions serial_options;
  const uint64_t before_serial = ThreadPool::TotalCreated();
  const JoinResult serial = TransformJoin(ds.pair, serial_options);
  EXPECT_EQ(ThreadPool::TotalCreated() - before_serial, 0u);

  JoinOptions parallel_options;
  parallel_options.discovery.num_threads = 4;
  parallel_options.match_options.num_threads = 4;
  const uint64_t before_parallel = ThreadPool::TotalCreated();
  const JoinResult parallel = TransformJoin(ds.pair, parallel_options);
  EXPECT_EQ(ThreadPool::TotalCreated() - before_parallel, 1u);

  ASSERT_EQ(parallel.joined.size(), serial.joined.size());
  for (size_t i = 0; i < serial.joined.size(); ++i) {
    EXPECT_EQ(parallel.joined[i], serial.joined[i]);
  }
  EXPECT_EQ(parallel.applied_transformations,
            serial.applied_transformations);
  EXPECT_EQ(parallel.learning_pairs, serial.learning_pairs);
}

}  // namespace
}  // namespace tj
