// The running resident-bytes counter (TableCatalog::CachedResidentBytes)
// that replaced the per-AddTable ResidentCellBytes() rescan in budget
// enforcement. Contracts:
//  * without an active budget the counter stays 0 (never maintained);
//  * with a budget, the counter equals the exact scan at every quiesce
//    point — after ingest + ComputeSignatures, after Remove/Update, after
//    explicit enforcement, after transparent re-maps on access, and after
//    a serial discovery run;
//  * enforcement itself still works: resident bytes end up at or below the
//    budget whenever there are evictable tables.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "datagen/corpus.h"

namespace tj {
namespace {

namespace fs = std::filesystem;

class BudgetCounterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("tj_budget_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    ASSERT_TRUE(fs::create_directories(dir_));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  StorageOptions Budgeted(size_t budget) const {
    StorageOptions storage;
    storage.spill_dir = dir_;
    storage.memory_budget_bytes = budget;
    return storage;
  }

  static SynthCorpus Corpus(uint64_t seed = 5) {
    SynthCorpusOptions options;
    options.num_joinable_pairs = 2;
    options.num_noise_tables = 2;
    options.rows = 30;
    options.seed = seed;
    return GenerateSynthCorpus(options);
  }

  std::string dir_;
};

TEST_F(BudgetCounterTest, CounterStaysZeroWithoutBudget) {
  TableCatalog catalog;  // heap storage, no budget
  for (const Table& table : Corpus().tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  EXPECT_EQ(catalog.CachedResidentBytes(), 0u);
  EXPECT_GT(catalog.ResidentCellBytes(), 0u);
}

TEST_F(BudgetCounterTest, CounterMatchesExactScanAtQuiescePoints) {
  TableCatalog catalog(Budgeted(32 << 10));
  const SynthCorpus corpus = Corpus();

  // After every AddTable (each runs enforcement off the counter).
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
    EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());
  }

  // After the signature pass (which resyncs and re-enforces).
  catalog.ComputeSignatures();
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());

  // After a transparent re-map on access.
  const uint32_t first = 0;
  ASSERT_TRUE(catalog.EnsureTableResident(first).ok());
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());

  // After RemoveTable.
  const std::string victim = catalog.table_name(1);
  ASSERT_TRUE(catalog.RemoveTable(victim).ok());
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());

  // After UpdateTable (replacing a table with itself).
  Table replacement = corpus.tables[0];
  replacement.set_name(catalog.table_name(first));
  ASSERT_TRUE(catalog.UpdateTable(std::move(replacement)).ok());
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());

  // After explicit enforcement at a caller-chosen sync point.
  catalog.EnforceMemoryBudget();
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());
}

// Case-insensitive discovery reads catalog columns in place: it must add
// no spill bytes and no resident bytes the catalog does not see, so the
// counter still equals the exact scan after a discovery run with no resync.
// Serial, so no two pairs race to re-map the same evicted table (a race
// the next signature pass resyncs away).
TEST_F(BudgetCounterTest, DiscoveryLeavesSpillAndCounterUnchanged) {
  TableCatalog catalog(Budgeted(8 << 10));
  const SynthCorpus corpus = Corpus(13);
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  catalog.ComputeSignatures();
  ASSERT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());
  const size_t spilled = catalog.SpilledBytes();
  ASSERT_GT(spilled, 0u);

  CorpusDiscoveryOptions options;
  options.num_threads = 1;
  const CorpusDiscoveryResult result =
      DiscoverJoinableColumns(&catalog, options);
  ASSERT_FALSE(result.results.empty()) << "no pair evaluated; vacuous";
  EXPECT_EQ(result.failed_pairs, 0u);

  EXPECT_EQ(catalog.SpilledBytes(), spilled);
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());
}

TEST_F(BudgetCounterTest, EnforcementStillEvictsDownToBudget) {
  // A budget far below the corpus size: after ingest the resident bytes
  // must sit at or below it (modulo the single spared newest table).
  const size_t budget = 8 << 10;
  TableCatalog catalog(Budgeted(budget));
  const SynthCorpus corpus = Corpus(9);
  size_t max_single_table = 0;
  for (const Table& table : corpus.tables) {
    ASSERT_TRUE(catalog.AddTable(table).ok());
  }
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    max_single_table =
        std::max(max_single_table, catalog.table(t).ResidentBytes());
  }
  catalog.ComputeSignatures();
  catalog.EnforceMemoryBudget();
  // The newest-touched table is spared by design, so the floor is
  // budget + one table, not the budget itself.
  EXPECT_LE(catalog.ResidentCellBytes(), budget + max_single_table)
      << "enforcement failed to evict";
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());

  // Everything evicted stays readable: re-map one and recheck consistency.
  for (uint32_t t = 0; t < catalog.num_slots(); ++t) {
    ASSERT_TRUE(catalog.EnsureTableResident(t).ok());
  }
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());
}

}  // namespace
}  // namespace tj
