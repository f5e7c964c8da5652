// LSH candidate lookup: unit tests for the slot-bucket index plus the
// property the probe path exists to uphold — at a positive containment
// floor, the bucket-probed incremental shortlist is bit-identical to the
// exhaustive full-scan shortlist, for random synthetic corpora, across
// thread counts 1/2/4/8, on heap and spilled storage, through random
// add/remove/update sequences.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/lsh_index.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "match/row_matcher.h"

namespace tj {
namespace {

SynthCorpus MakeCorpus(const char* prefix, size_t pairs, size_t noise,
                       uint64_t seed) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = pairs;
  options.num_noise_tables = noise;
  options.rows = 20;
  options.seed = seed;
  options.name_prefix = prefix;
  return GenerateSynthCorpus(options);
}

ColumnSignature SignatureOf(const std::vector<std::string>& values) {
  Column column("c", values);
  return ComputeColumnSignature(column);
}

TEST(LshIndex, ProbeFindsInsertedSimilarColumns) {
  const ColumnSignature sig_a =
      SignatureOf({"alpha-one", "alpha-two", "alpha-three"});
  const ColumnSignature sig_b =
      SignatureOf({"alpha-one", "alpha-two", "alpha-four"});
  const ColumnSignature sig_far =
      SignatureOf({"zzzz9999", "yyyy8888", "xxxx7777"});

  LshIndex index;
  index.Insert(ColumnRef{0, 0}, sig_a);
  index.Insert(ColumnRef{1, 0}, sig_far);
  EXPECT_EQ(index.num_entries(), 2u);
  EXPECT_GT(index.num_buckets(), 0u);

  // Heavy gram overlap -> some MinHash slot agrees -> the probe sees it.
  const std::vector<ColumnRef> hits = index.Probe(sig_b);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(hits[0] == (ColumnRef{0, 0}));

  // An identical sketch collides in every bucket, but Probe dedups.
  const std::vector<ColumnRef> self_hits = index.Probe(sig_a);
  ASSERT_EQ(self_hits.size(), 1u);
  EXPECT_TRUE(self_hits[0] == (ColumnRef{0, 0}));
}

TEST(LshIndex, RemoveTableDropsAllItsColumns) {
  const ColumnSignature sig =
      SignatureOf({"shared-content-a", "shared-content-b"});
  LshIndex index;
  index.Insert(ColumnRef{3, 0}, sig);
  index.Insert(ColumnRef{3, 1}, sig);
  index.Insert(ColumnRef{7, 0}, sig);
  EXPECT_EQ(index.num_entries(), 3u);

  index.RemoveTable(3);
  EXPECT_EQ(index.num_entries(), 1u);
  const std::vector<ColumnRef> hits = index.Probe(sig);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(hits[0] == (ColumnRef{7, 0}));

  index.RemoveTable(7);
  EXPECT_EQ(index.num_entries(), 0u);
  EXPECT_EQ(index.num_buckets(), 0u);
  EXPECT_TRUE(index.Probe(sig).empty());
}

TEST(LshIndex, EmptySketchesAreNeverIndexedOrProbed) {
  // Columns that sketched no grams (all cells shorter than the gram width)
  // score 0 against everything; indexing their all-empty sketches would
  // make them collide with each other in every slot.
  const ColumnSignature empty = SignatureOf({"ab", "cd"});
  ASSERT_EQ(empty.distinct_ngrams, 0u);
  LshIndex index;
  index.Insert(ColumnRef{0, 0}, empty);
  EXPECT_EQ(index.num_entries(), 0u);
  EXPECT_TRUE(index.Probe(empty).empty());
}

// Satellite: when mean cell lengths tie exactly, the sketch-derived
// orientation hint must reproduce PickSourceColumn's tie-break (both sides
// resolve ">= " in favor of `a`), so hinted and rescanning discovery runs
// orient the pair identically.
TEST(OrientationHint, MeanLengthTieMatchesPickSourceColumn) {
  // Identical content => exactly equal mean lengths (and containment 1).
  const std::vector<std::string> cells = {"tie-break-one", "tie-break-two",
                                          "tie-break-three"};
  Table left("left");
  ASSERT_TRUE(left.AddColumn(Column("value", cells)).ok());
  Table right("right");
  ASSERT_TRUE(right.AddColumn(Column("value", cells)).ok());

  TableCatalog catalog;
  auto left_id = catalog.AddTable(std::move(left));
  auto right_id = catalog.AddTable(std::move(right));
  ASSERT_TRUE(left_id.ok() && right_id.ok());
  catalog.ComputeSignatures();

  const ColumnRef a{*left_id, 0};
  const ColumnRef b{*right_id, 0};
  ASSERT_EQ(catalog.signature(a).mean_length, catalog.signature(b).mean_length);

  ColumnPairCandidate candidate;
  ASSERT_TRUE(
      ScoreColumnPair(catalog, a, b, PairPrunerOptions(), &candidate));
  EXPECT_TRUE(candidate.a_is_source);
  // PickSourceColumn resolves the same tie the same way: `a` wins.
  EXPECT_EQ(candidate.a_is_source,
            PickSourceColumn(catalog.column(a), catalog.column(b)));
  // And the hint is orientation-consistent when probed in reverse order.
  EXPECT_TRUE(PickSourceColumn(catalog.column(b), catalog.column(a)));
}

// The recall property test: probe-driven pruners at several thread counts,
// maintained through a random op sequence, against both heap and spilled
// catalogs — every snapshot must be bit-identical to the exhaustive
// ShortlistPairs over the same live state.
class LshRecallPropertyTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    spilled_ = GetParam();
    if (spilled_) {
      dir_ = std::filesystem::temp_directory_path() /
             ("tj-lsh-" + std::to_string(::getpid()));
      std::filesystem::create_directories(dir_);
      storage_.spill_dir = dir_.string();
      storage_.memory_budget_bytes = 16 * 1024;
    }
  }
  void TearDown() override {
    if (spilled_) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  bool spilled_ = false;
  std::filesystem::path dir_;
  StorageOptions storage_;
};

TEST_P(LshRecallPropertyTest, ProbedShortlistMatchesFullScan) {
  PairPrunerOptions options;

  TableCatalog catalog(storage_);
  const SynthCorpus base = MakeCorpus("synth", 3, 2, 83);
  for (const Table& table : base.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<IncrementalPairPruner> pruners;
  for (int threads : thread_counts) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
    pruners.emplace_back(options);
    pruners.back().Rebuild(catalog, pools.back().get());
  }

  const auto check_all = [&](const std::string& context) {
    const PairPrunerResult scratch = ShortlistPairs(catalog, options);
    for (size_t i = 0; i < pruners.size(); ++i) {
      const PairPrunerResult probed = pruners[i].Snapshot();
      const std::string where =
          context + StrPrintf(" [threads=%d]", thread_counts[i]);
      EXPECT_EQ(probed.total_pairs, scratch.total_pairs) << where;
      EXPECT_EQ(probed.pruned_pairs, scratch.pruned_pairs) << where;
      ASSERT_EQ(probed.shortlist.size(), scratch.shortlist.size()) << where;
      for (size_t r = 0; r < scratch.shortlist.size(); ++r) {
        const ColumnPairCandidate& x = probed.shortlist[r];
        const ColumnPairCandidate& y = scratch.shortlist[r];
        EXPECT_TRUE(x.a == y.a) << where << " rank " << r;
        EXPECT_TRUE(x.b == y.b) << where << " rank " << r;
        EXPECT_EQ(x.score, y.score) << where << " rank " << r;
        EXPECT_EQ(x.a_is_source, y.a_is_source) << where << " rank " << r;
      }
    }
  };
  check_all("initial");

  const SynthCorpus reservoir = MakeCorpus("add", 3, 2, 89);
  size_t next = 0;
  Rng rng(4242);
  for (int op = 0; op < 10; ++op) {
    std::vector<uint32_t> live;
    for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
      if (catalog.IsLive(t)) live.push_back(t);
    }
    const uint64_t kind = rng.Uniform(3);
    if (kind == 0 && next < reservoir.tables.size()) {
      auto id = catalog.AddTable(reservoir.tables[next++]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      catalog.ComputeSignatures();
      for (size_t i = 0; i < pruners.size(); ++i) {
        pruners[i].OnTableAdded(catalog, *id, pools[i].get());
      }
    } else if (kind == 1 && live.size() > 4) {
      const uint32_t victim =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      const std::string name = catalog.table(victim).name();
      ASSERT_TRUE(catalog.RemoveTable(name).ok());
      for (IncrementalPairPruner& pruner : pruners) {
        pruner.OnTableRemoved(victim);
      }
    } else {
      const uint32_t victim =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      Table mutated = catalog.table(victim);
      if (mutated.num_rows() == 0) continue;
      mutated.mutable_column(0).Set(
          static_cast<size_t>(rng.Uniform(mutated.num_rows())),
          StrPrintf("updated-%d-%llu", op,
                    static_cast<unsigned long long>(rng.NextU64())));
      auto id = catalog.UpdateTable(std::move(mutated));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      catalog.ComputeSignatures();
      for (size_t i = 0; i < pruners.size(); ++i) {
        pruners[i].OnTableUpdated(catalog, *id, pools[i].get());
      }
    }
    check_all(StrPrintf("op %d", op));
  }
}

INSTANTIATE_TEST_SUITE_P(HeapAndSpilled, LshRecallPropertyTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Spilled" : "Heap";
                         });

}  // namespace
}  // namespace tj
