// CorpusSnapshot tests: name resolution (including dotted table names),
// pinned-table lifetime across catalog RemoveTable/UpdateTable (the
// use-after-free surface — run under -DTJ_SANITIZE=ON), epoch stamping,
// and the load-bearing byte-identity property: evaluating a shortlist
// against a snapshot produces results identical to evaluating it against
// the live catalog it was built from.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "serve/snapshot.h"
#include "table/table.h"

namespace tj::serve {
namespace {

Table MakeTable(const std::string& name,
                const std::vector<std::pair<std::string,
                                            std::vector<std::string>>>& cols) {
  Table table(name);
  for (const auto& [col_name, values] : cols) {
    EXPECT_TRUE(table.AddColumn(Column(col_name, values)).ok());
  }
  return table;
}

SynthCorpus SmallCorpus(uint64_t seed = 7) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = 2;
  options.num_noise_tables = 1;
  options.rows = 25;
  options.seed = seed;
  return GenerateSynthCorpus(options);
}

TEST(CorpusSnapshotTest, CapturesCatalogStateAndEpoch) {
  TableCatalog catalog;
  const SynthCorpus corpus = SmallCorpus();
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);

  const auto snapshot = CorpusSnapshot::Build(catalog, pruner);
  EXPECT_EQ(snapshot->epoch(), catalog.mutation_epoch());
  EXPECT_EQ(snapshot->num_tables(), catalog.num_tables());
  EXPECT_EQ(snapshot->num_columns(), catalog.num_columns());
  const PairPrunerResult direct = pruner.Snapshot();
  ASSERT_EQ(snapshot->shortlist().shortlist.size(),
            direct.shortlist.size());
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    EXPECT_TRUE(snapshot->IsLive(t));
    EXPECT_EQ(snapshot->table_name(t), catalog.table_name(t));
  }
}

TEST(CorpusSnapshotTest, ResolvesColumnsRightmostDotFirst) {
  TableCatalog catalog;
  ASSERT_TRUE(
      catalog.AddTable(MakeTable("plain", {{"id", {"a", "b"}}})).ok());
  // A dotted table name: "data.v2" with column "id", plus a table "data"
  // with column "v2.id" — every split must resolve to the right owner.
  ASSERT_TRUE(
      catalog.AddTable(MakeTable("data.v2", {{"id", {"c", "d"}}})).ok());
  ASSERT_TRUE(
      catalog.AddTable(MakeTable("data", {{"v2.id", {"e", "f"}}})).ok());
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);
  const auto snapshot = CorpusSnapshot::Build(catalog, pruner);

  auto plain = snapshot->ResolveColumn("plain.id");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(snapshot->SpecOf(*plain), "plain.id");

  auto dotted = snapshot->ResolveColumn("data.v2.id");
  ASSERT_TRUE(dotted.ok()) << dotted.status().ToString();
  // Rightmost split first: table "data.v2", column "id".
  EXPECT_EQ(snapshot->table_name(dotted->table), "data.v2");
  EXPECT_EQ(snapshot->column_name(*dotted), "id");

  EXPECT_FALSE(snapshot->ResolveColumn("plain.missing").ok());
  EXPECT_FALSE(snapshot->ResolveColumn("missing.id").ok());
  EXPECT_FALSE(snapshot->ResolveColumn("nodothere").ok());
  EXPECT_FALSE(snapshot->ResolveColumn("").ok());

  auto table = snapshot->ResolveTable("data.v2");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(snapshot->table_name(*table), "data.v2");
  EXPECT_FALSE(snapshot->ResolveTable("absent").ok());
}

TEST(CorpusSnapshotTest, PinsTablesAcrossRemoveAndUpdate) {
  TableCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(MakeTable("left", {{"k", {"one", "two",
                                                      "three"}}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddTable(MakeTable("right", {{"k", {"eins", "zwei",
                                                       "drei"}}}))
                  .ok());
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);
  const auto snapshot = CorpusSnapshot::Build(catalog, pruner);
  const uint64_t pinned_epoch = snapshot->epoch();

  // Mutate the catalog out from under the snapshot.
  ASSERT_TRUE(catalog.RemoveTable("left").ok());
  ASSERT_TRUE(
      catalog.UpdateTable(MakeTable("right", {{"k", {"vier"}}})).ok());
  EXPECT_GT(catalog.mutation_epoch(), pinned_epoch);

  // The snapshot still reads the pinned bytes (ASan guards the lifetime).
  auto left = snapshot->ResolveColumn("left.k");
  ASSERT_TRUE(left.ok());
  auto left_col = snapshot->ResidentColumn(*left);
  ASSERT_TRUE(left_col.ok());
  EXPECT_EQ((*left_col)->Get(0), "one");
  auto right = snapshot->ResolveColumn("right.k");
  ASSERT_TRUE(right.ok());
  auto right_col = snapshot->ResidentColumn(*right);
  ASSERT_TRUE(right_col.ok());
  ASSERT_EQ((*right_col)->size(), 3u);  // pre-update contents
  EXPECT_EQ((*right_col)->Get(0), "eins");

  // A snapshot built now sees the new state under a higher epoch.
  pruner.OnTableRemoved(0);
  catalog.ComputeSignatures();
  pruner.OnTableUpdated(catalog, 1);
  const auto fresh = CorpusSnapshot::Build(catalog, pruner);
  EXPECT_GT(fresh->epoch(), pinned_epoch);
  EXPECT_FALSE(fresh->ResolveColumn("left.k").ok());
  auto fresh_right = fresh->ResolveColumn("right.k");
  ASSERT_TRUE(fresh_right.ok());
  EXPECT_EQ((*fresh->ResidentColumn(*fresh_right))->Get(0), "vier");
}

TEST(CorpusSnapshotTest, ResidentColumnRejectsBadRefs) {
  TableCatalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeTable("t", {{"c", {"x"}}})).ok());
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);
  const auto snapshot = CorpusSnapshot::Build(catalog, pruner);
  EXPECT_FALSE(snapshot->ResidentColumn(ColumnRef{5, 0}).ok());
  EXPECT_FALSE(snapshot->ResidentColumn(ColumnRef{0, 9}).ok());
  EXPECT_TRUE(snapshot->ResidentColumn(ColumnRef{0, 0}).ok());
}

TEST(CorpusSnapshotTest, ShortlistEvaluationMatchesLiveCatalog) {
  TableCatalog catalog;
  const SynthCorpus corpus = SmallCorpus(11);
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  IncrementalPairPruner pruner;
  pruner.Rebuild(catalog);
  const PairPrunerResult shortlist = pruner.Snapshot();
  ASSERT_FALSE(shortlist.shortlist.empty());

  CorpusDiscoveryOptions options;
  const CorpusDiscoveryResult live =
      EvaluateShortlist(catalog, shortlist, options);

  const auto snapshot = CorpusSnapshot::Build(catalog, pruner);
  const CorpusDiscoveryResult snapped =
      EvaluateShortlist(*snapshot, snapshot->shortlist(), options,
                        /*pool=*/nullptr);

  ASSERT_EQ(live.results.size(), snapped.results.size());
  for (size_t i = 0; i < live.results.size(); ++i) {
    const CorpusPairResult& a = live.results[i];
    const CorpusPairResult& b = snapped.results[i];
    EXPECT_TRUE(a.source == b.source) << "rank " << i;
    EXPECT_TRUE(a.target == b.target) << "rank " << i;
    EXPECT_EQ(a.learning_pairs, b.learning_pairs) << "rank " << i;
    EXPECT_EQ(a.joined_rows, b.joined_rows) << "rank " << i;
    EXPECT_EQ(a.top_coverage, b.top_coverage) << "rank " << i;
    EXPECT_EQ(a.transformations, b.transformations) << "rank " << i;
    EXPECT_EQ(a.error, b.error) << "rank " << i;
  }

  // Per-candidate evaluation agrees with its shortlist slot too (the
  // served 'joinable' path goes through EvaluateCandidate).
  for (size_t i = 0; i < shortlist.shortlist.size(); ++i) {
    const CorpusPairResult one =
        EvaluateCandidate(*snapshot, shortlist.shortlist[i], options,
                          /*pool=*/nullptr, /*use_orientation_hint=*/true);
    EXPECT_EQ(one.joined_rows, live.results[i].joined_rows) << "rank " << i;
    EXPECT_EQ(one.transformations, live.results[i].transformations)
        << "rank " << i;
  }
}

}  // namespace
}  // namespace tj::serve
