// View-lifetime tests for the arena storage core (table/column.h): moves
// keep cell views valid, copies are independent and mutable, ExamplePair
// views survive everything discovery does with them, and TableCatalog::UpdateTable never leaves a
// live shortlist reading stale bytes. The dangling-view failure modes these
// tests guard are silent in a plain build — run them under the sanitizer
// config too (cmake -DTJ_SANITIZE=ON).

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/discovery.h"
#include "core/example.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "datagen/corpus.h"
#include "datagen/synth.h"
#include "index/inverted_index.h"
#include "table/csv.h"
#include "table/table.h"

namespace tj {
namespace {

TEST(ColumnViews, MoveKeepsViewsValid) {
  Column original("c", {"alpha", "beta", "gamma"});
  original.Freeze();
  const std::string_view before = original.Get(1);
  ASSERT_EQ(before, "beta");

  const Column moved = std::move(original);
  EXPECT_TRUE(moved.frozen());
  // Same bytes at the same address: the arena buffer migrated wholesale.
  EXPECT_EQ(moved.Get(1).data(), before.data());
  EXPECT_EQ(before, "beta");
  EXPECT_EQ(moved.Get(0), "alpha");
  EXPECT_EQ(moved.Get(2), "gamma");
}

TEST(ColumnViews, CopyIsIndependentAndUnfrozen) {
  Column original("c", {"one", "two"});
  original.Freeze();
  const std::string_view view = original.Get(0);

  Column copy = original;
  EXPECT_FALSE(copy.frozen());  // copies start mutable
  EXPECT_NE(copy.Get(0).data(), view.data());  // own arena
  copy.Set(0, "ONE");
  copy.Append("three");
  // The original and its outstanding views are untouched.
  EXPECT_EQ(view, "one");
  EXPECT_EQ(original.Get(0), "one");
  EXPECT_EQ(original.size(), 2u);
  EXPECT_EQ(copy.Get(0), "ONE");
  EXPECT_EQ(copy.size(), 3u);
}

TEST(ColumnViews, SetRewritesInPlaceOrGrows) {
  Column c("c", {"abcdef", "xyz"});
  const size_t arena_before = c.ArenaBytes();
  c.Set(0, "ab");  // shrink: rewritten in place, no arena growth
  EXPECT_EQ(c.Get(0), "ab");
  EXPECT_EQ(c.Get(1), "xyz");
  EXPECT_EQ(c.ArenaBytes(), arena_before);
  EXPECT_EQ(c.CellBytes(), 5u);

  c.Set(1, "a longer replacement");  // grow: appended at the arena end
  EXPECT_EQ(c.Get(1), "a longer replacement");
  EXPECT_EQ(c.Get(0), "ab");
  EXPECT_GT(c.ArenaBytes(), arena_before);
}

TEST(ColumnViews, CopyCompactsDeadArenaSpace) {
  Column c("c", {"tiny", "cell"});
  c.Set(0, "a very much longer replacement value");  // orphans "tiny"
  ASSERT_GT(c.ArenaBytes(), c.CellBytes());

  // Copies carry only live bytes, so the catalog's copy-edit-UpdateTable
  // maintenance cycle cannot accumulate dead space across iterations.
  const Column copy = c;
  EXPECT_EQ(copy.ArenaBytes(), copy.CellBytes());
  EXPECT_EQ(copy.Get(0), "a very much longer replacement value");
  EXPECT_EQ(copy.Get(1), "cell");

  Column assigned("other", {"x"});
  assigned = c;
  EXPECT_EQ(assigned.ArenaBytes(), assigned.CellBytes());
  EXPECT_EQ(assigned.Get(1), "cell");
}

TEST(ColumnViews, SelfAliasingMutationIsSafe) {
  // Set/Append fed views into the column's own arena must survive the
  // reallocation they themselves trigger.
  Column c("c", {"source-cell-contents", "x"});
  c.Set(1, c.Get(0));  // grow from own arena
  EXPECT_EQ(c.Get(1), "source-cell-contents");
  EXPECT_EQ(c.Get(0), "source-cell-contents");

  c.Append(c.Get(0));  // append from own arena
  EXPECT_EQ(c.Get(2), "source-cell-contents");

  c.Set(0, c.Get(0).substr(0, 6));  // overlapping in-place shrink
  EXPECT_EQ(c.Get(0), "source");
}

TEST(ColumnViews, FrozenColumnRejectsMutation) {
  Column c("c", {"x"});
  c.Freeze();
  EXPECT_DEATH(c.Append("y"), "frozen");
  EXPECT_DEATH(c.Set(0, "y"), "frozen");
}

TEST(TableViews, MoveKeepsViewsValid) {
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column("a", {"first", "second"})).ok());
  ASSERT_TRUE(table.AddColumn(Column("b", {"x", "y"})).ok());
  table.Freeze();
  const std::string_view view = table.column(0).Get(1);

  std::vector<Table> tables;
  tables.push_back(std::move(table));  // move into a growing container
  tables.emplace_back("other");
  EXPECT_EQ(tables[0].column(0).Get(1).data(), view.data());
  EXPECT_EQ(view, "second");
}

TEST(CsvViews, LoadedTableReadsFromArena) {
  const auto result = ReadCsvString("name,id\n\"quoted, cell\",7\nplain,8\n");
  ASSERT_TRUE(result.ok());
  const Table& t = *result;
  EXPECT_EQ(t.column(0).Get(0), "quoted, cell");
  EXPECT_EQ(t.column(1).Get(1), "8");
  // Both cells of a column live in one contiguous arena.
  EXPECT_EQ(t.column(0).ArenaBytes(), t.column(0).CellBytes());
}

TEST(ExamplePairViews, SurviveDiscoveryAndDatasetMoves) {
  // Views into a dataset's arenas survive moving the dataset (arena buffers
  // migrate) and everything DiscoverTransformations does with the rows.
  SynthDataset dataset = GenerateSynth(SynthN(30, 77));
  std::vector<ExamplePair> rows = MakeExamplePairs(
      dataset.pair.SourceColumn(), dataset.pair.TargetColumn(),
      dataset.pair.golden.pairs());
  const std::string first_source(rows[0].source);

  const SynthDataset holder = std::move(dataset);  // views must stay valid
  EXPECT_EQ(rows[0].source, first_source);
  EXPECT_EQ(rows[0].source.data(), holder.pair.SourceColumn().Get(
                                       holder.pair.golden.pairs()[0].source)
                                       .data());

  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  EXPECT_DOUBLE_EQ(result.CoverSetCoverageFraction(), 1.0);

  // The result owns its bytes: the rows can die before it is used.
  rows.clear();
  ASSERT_FALSE(result.cover.selected.empty());
  const Transformation& best =
      result.store.Get(result.cover.selected[0].id);
  EXPECT_FALSE(best.ToString(result.units).empty());
}

TEST(CatalogViews, UpdateTableLeavesNoDanglingViewsInLiveShortlists) {
  // A shortlist holds ColumnRefs (ids), not views, so evaluating it after
  // UpdateTable must read the replacement arena — bit-identically to a
  // fresh catalog registered at the updated state (same names, same order,
  // same ids). Under ASan this also proves no stale-arena read survives.
  SynthCorpusOptions options;
  options.num_joinable_pairs = 3;
  options.num_noise_tables = 1;
  options.rows = 24;
  options.seed = 9;
  const SynthCorpus corpus = GenerateSynthCorpus(options);

  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  const PairPrunerResult shortlist = ShortlistPairs(catalog, {});
  ASSERT_FALSE(shortlist.shortlist.empty());

  // Update the first table participating in the shortlist: its old arena is
  // freed; the live shortlist keeps its refs.
  const uint32_t victim = shortlist.shortlist[0].a.table;
  Table mutated = catalog.table(victim);  // unfrozen copy
  mutated.mutable_column(0).Set(0, "update replaces this table's arena");
  ASSERT_TRUE(catalog.UpdateTable(std::move(mutated)).ok());
  catalog.ComputeSignatures();

  CorpusDiscoveryOptions discovery;
  discovery.num_threads = 1;
  const CorpusDiscoveryResult live =
      EvaluateShortlist(catalog, shortlist, discovery);

  TableCatalog fresh;
  for (uint32_t id = 0; id < catalog.num_slots(); ++id) {
    ASSERT_TRUE(fresh.AddTable(catalog.table(id)).ok());  // same id order
  }
  fresh.ComputeSignatures();
  const CorpusDiscoveryResult expected =
      EvaluateShortlist(fresh, shortlist, discovery);

  ASSERT_EQ(live.results.size(), expected.results.size());
  for (size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(live.results[i].learning_pairs,
              expected.results[i].learning_pairs) << i;
    EXPECT_EQ(live.results[i].joined_rows, expected.results[i].joined_rows)
        << i;
    EXPECT_EQ(live.results[i].transformations,
              expected.results[i].transformations) << i;
  }
}

TEST(IndexViews, RowsShorterThanMinGramBuildEmptyIndex) {
  // Rows shorter than kMinGram enumerate nothing; the build must return an
  // empty index (as the pre-CSR map build did), not trip over the
  // occurrence-bound math.
  const Column column("c", {"abc", "", "xy", "q"});
  const NgramInvertedIndex index = NgramInvertedIndex::Build(column);
  EXPECT_EQ(index.num_rows(), 4u);
  EXPECT_EQ(index.num_grams(), 0u);
  EXPECT_EQ(index.TotalPostings(), 0u);
  EXPECT_TRUE(index.Lookup("abc").empty());
}

TEST(IndexViews, LookupSpansSurviveIndexMoves) {
  const Column column("c", {"shared-prefix-a", "shared-prefix-b"});
  NgramInvertedIndex index = NgramInvertedIndex::Build(column);
  const std::span<const uint32_t> rows = index.Lookup("shared");
  ASSERT_EQ(rows.size(), 2u);

  const NgramInvertedIndex moved = std::move(index);
  EXPECT_EQ(moved.Lookup("shared").data(), rows.data());
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 1u);
}

}  // namespace
}  // namespace tj
