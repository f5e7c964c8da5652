// Tests for the bench harness: report printers and a small-scale end-to-end
// pass over the dataset suite (the same code paths the table/figure benches
// run, at integration-test size).

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "benchlib/report.h"
#include "benchlib/suite.h"
#include "common/thread_pool.h"

namespace tj {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer-name", "23456"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("longer-name  23456"), std::string::npos);
  // Header underline present.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(SeriesPrinter, EmitsAllPoints) {
  SeriesPrinter series("x", {"a", "b"});
  series.AddPoint(1, {0.5, 1.5});
  series.AddPoint(2, {2.5, 3.5});
  const std::string out = series.Render();
  EXPECT_NE(out.find("0.5000"), std::string::npos);
  EXPECT_NE(out.find("3.5000"), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatSeconds(0.000005), "5us");
  EXPECT_EQ(FormatSeconds(0.005), "5.0ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50s");
}

TEST(Suite, EnvScaleIsParsed) {
  ::setenv("TJ_BENCH_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(SuiteOptionsFromEnv().scale, 0.5);
  // Malformed, partial, infinite, out-of-range and NaN scales keep 1.0.
  for (const char* bad : {"garbage", "0.5x", "inf", "1e400", "nan", "0",
                          "-1", "1025"}) {
    ::setenv("TJ_BENCH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(SuiteOptionsFromEnv().scale, 1.0) << bad;
  }
  ::unsetenv("TJ_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(SuiteOptionsFromEnv().scale, 1.0);

  ::setenv("TJ_NUM_THREADS", "4", 1);
  EXPECT_EQ(SuiteOptionsFromEnv().num_threads, 4);
  // Only a whole number in [0, 1024] replaces the serial default.
  for (const char* bad : {"abc", "4x", "2000", "-1", ""}) {
    ::setenv("TJ_NUM_THREADS", bad, 1);
    EXPECT_EQ(SuiteOptionsFromEnv().num_threads, 1) << bad;
  }
  ::unsetenv("TJ_NUM_THREADS");
  EXPECT_EQ(SuiteOptionsFromEnv().num_threads, 1);
}

TEST(Suite, BuildsAllSevenDatasets) {
  SuiteOptions options;
  options.scale = 0.05;  // tiny integration-test scale
  const auto suite = BuildSuite(options);
  ASSERT_EQ(suite.size(), 7u);
  EXPECT_EQ(suite[0].name, "Web tables");
  EXPECT_EQ(suite[1].name, "Spreadsheet");
  EXPECT_EQ(suite[2].name, "Open data");
  EXPECT_EQ(suite[3].name, "Synth-50");
  EXPECT_EQ(suite[6].name, "Synth-500L");
  for (const auto& d : suite) {
    EXPECT_FALSE(d.tables.empty()) << d.name;
  }
  // Per-dataset configuration from the paper's §6.2/§6.4.
  EXPECT_EQ(suite[1].discovery.max_placeholders, 4);
  EXPECT_GT(suite[2].discovery.min_support_fraction, 0.0);
  EXPECT_GT(suite[2].sample_pairs, 0u);
}

TEST(Suite, EndToEndSmallScalePass) {
  // Exercises the exact runner code paths of the Table 1/2/4 benches on a
  // shrunken suite.
  SuiteOptions options;
  options.scale = 0.04;
  options.include_webtables = false;   // keep this test fast
  options.include_spreadsheet = false;
  const auto suite = BuildSuite(options);
  for (const auto& dataset : suite) {
    const TablePair& pair = dataset.tables.front();
    const RowMatchEval match = EvaluateRowMatching(pair);
    EXPECT_GT(match.pairs, 0u) << dataset.name;
    const DiscoveryEval golden =
        EvaluateDiscovery(pair, dataset, MatchingMode::kGolden);
    EXPECT_GT(golden.learning_pairs, 0u) << dataset.name;
    EXPECT_GT(golden.cover_coverage, 0.0) << dataset.name;
    EXPECT_GE(golden.top_coverage, 0.0) << dataset.name;
    EXPECT_LE(golden.top_coverage, 1.0) << dataset.name;
  }
}

TEST(Suite, GoldenDiscoveryCoversSynthFully) {
  SuiteOptions options;
  options.scale = 0.2;
  options.include_webtables = false;
  options.include_spreadsheet = false;
  options.include_opendata = false;
  for (const auto& dataset : BuildSuite(options)) {
    for (const auto& pair : dataset.tables) {
      const DiscoveryEval eval =
          EvaluateDiscovery(pair, dataset, MatchingMode::kGolden);
      EXPECT_DOUBLE_EQ(eval.cover_coverage, 1.0)
          << dataset.name << "/" << pair.name;
    }
  }
}

TEST(Suite, ParallelPerPairEvaluationIsDeterministic) {
  // The dataset runners fan out per pair on a shared pool; everything but
  // wall time must be bit-identical at every thread count (1/2/4/8),
  // including against the historical sequential loops (pool == nullptr).
  SuiteOptions options;
  options.scale = 0.08;
  options.include_webtables = false;
  options.include_spreadsheet = false;
  options.include_opendata = false;  // synth-only keeps this test fast
  const auto suite = BuildSuite(options);
  ASSERT_FALSE(suite.empty());
  const BenchDataset& dataset = suite.front();
  ASSERT_GT(dataset.tables.size(), 1u);

  const std::vector<RowMatchEval> base_match =
      EvaluateRowMatchingAll(dataset, nullptr);
  const std::vector<DiscoveryEval> base_disc =
      EvaluateDiscoveryAll(dataset, MatchingMode::kNgram, nullptr);
  ASSERT_EQ(base_match.size(), dataset.tables.size());
  ASSERT_EQ(base_disc.size(), dataset.tables.size());

  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const std::vector<RowMatchEval> match =
        EvaluateRowMatchingAll(dataset, &pool);
    ASSERT_EQ(match.size(), base_match.size()) << threads;
    for (size_t i = 0; i < match.size(); ++i) {
      EXPECT_EQ(match[i].pairs, base_match[i].pairs) << threads;
      EXPECT_EQ(match[i].metrics.precision, base_match[i].metrics.precision)
          << threads;
      EXPECT_EQ(match[i].metrics.recall, base_match[i].metrics.recall)
          << threads;
      EXPECT_EQ(match[i].metrics.f1, base_match[i].metrics.f1) << threads;
    }

    const std::vector<DiscoveryEval> disc =
        EvaluateDiscoveryAll(dataset, MatchingMode::kNgram, &pool);
    ASSERT_EQ(disc.size(), base_disc.size()) << threads;
    for (size_t i = 0; i < disc.size(); ++i) {
      EXPECT_EQ(disc[i].top_coverage, base_disc[i].top_coverage) << threads;
      EXPECT_EQ(disc[i].cover_coverage, base_disc[i].cover_coverage)
          << threads;
      EXPECT_EQ(disc[i].num_transformations,
                base_disc[i].num_transformations)
          << threads;
      EXPECT_EQ(disc[i].learning_pairs, base_disc[i].learning_pairs)
          << threads;
      // Pipeline counters are exact at every thread count.
      EXPECT_EQ(disc[i].stats.generated_transformations,
                base_disc[i].stats.generated_transformations)
          << threads;
      EXPECT_EQ(disc[i].stats.unique_transformations,
                base_disc[i].stats.unique_transformations)
          << threads;
      EXPECT_EQ(disc[i].stats.cache_hits, base_disc[i].stats.cache_hits)
          << threads;
      EXPECT_EQ(disc[i].stats.full_evaluations,
                base_disc[i].stats.full_evaluations)
          << threads;
      EXPECT_EQ(disc[i].stats.covering_pairs,
                base_disc[i].stats.covering_pairs)
          << threads;
    }
  }
}

TEST(Mean, Helper) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

}  // namespace
}  // namespace tj
