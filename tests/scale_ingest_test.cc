// Corpus-scale smoke ("scale" ctest label): a budgeted, spilled 10k-table
// ingest driving the paths that only matter at repository scale — O(1)
// per-add budget checks off the cached resident counter, the sharded
// signature/eviction scans, and the LSH probe path of the incremental
// pruner, whose whole point is that folding a table into a 10k-table corpus
// must not score 10k pairs. The unit suites cover correctness at toy sizes;
// this suite proves the machinery stays sublinear and budget-respecting at
// a size those never reach, in seconds rather than minutes.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/pair_pruner.h"
#include "table/table.h"

namespace tj {
namespace {

constexpr size_t kTables = 10000;
constexpr size_t kRows = 4;

/// Deterministic per-table cell text. Most tables get globally unique
/// cells (no 4-gram overlap with anything), while every kJoinEvery-th pair
/// of consecutive tables shares its cells — those must survive pruning.
constexpr size_t kJoinEvery = 100;

std::string CellText(size_t table, size_t row) {
  // Pseudorandom hex per (table, row) — noise tables must share (almost)
  // no 4-grams, or every sketch collides with every other and the probe
  // degenerates to the full scan. A shared template prefix ("cell-...")
  // would do exactly that.
  uint64_t a = Mix64(table * 1315423911u + row);
  uint64_t b = Mix64(a ^ 0x746a7363616c65ULL);
  // Base-36 (the sketches lowercase their input, so mixed case would not
  // widen the alphabet): a 1.7M-strong 4-gram space keeps incidental
  // cross-table gram sharing — and thus baseline bucket collisions — rare.
  std::string s;
  s.reserve(24);
  for (int i = 0; i < 12; ++i) {
    const auto d = static_cast<char>(a % 36);
    s.push_back(d < 26 ? static_cast<char>('a' + d)
                       : static_cast<char>('0' + d - 26));
    a /= 36;
  }
  for (int i = 0; i < 12; ++i) {
    const auto d = static_cast<char>(b % 36);
    s.push_back(d < 26 ? static_cast<char>('a' + d)
                       : static_cast<char>('0' + d - 26));
    b /= 36;
  }
  return s;
}

Table MakeTinyTable(size_t i) {
  // Tables kJoinEvery*k and kJoinEvery*k+1 share content (a joinable pair);
  // everything else is unique noise.
  const size_t content = (i % kJoinEvery == 1) ? i - 1 : i;
  char name[32];
  std::snprintf(name, sizeof name, "scale%05zu", i);
  Table table(name);
  Column value("value");
  for (size_t r = 0; r < kRows; ++r) value.Append(CellText(content, r));
  EXPECT_TRUE(table.AddColumn(std::move(value)).ok());
  return table;
}

class ScaleIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tj-scale-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
};

TEST_F(ScaleIngestTest, BudgetedLshIngestStaysSublinear) {
  StorageOptions storage;
  storage.spill_dir = dir_.string();
  storage.memory_budget_bytes = 256 * 1024;
  TableCatalog catalog(storage);

  for (size_t i = 0; i < kTables; ++i) {
    auto added = catalog.AddTable(MakeTinyTable(i));
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }
  ASSERT_EQ(catalog.num_tables(), kTables);

  ThreadPool pool(4);
  catalog.ComputeSignatures(&pool);

  // Quiesce point: the cached counter was just resynced to the exact scan
  // and enforcement ran — the budget must hold (the one spared newest
  // table is tiny here, far below the budget).
  EXPECT_EQ(catalog.CachedResidentBytes(), catalog.ResidentCellBytes());
  EXPECT_LE(catalog.CachedResidentBytes(), storage.memory_budget_bytes);

  PairPrunerOptions options;
  IncrementalPairPruner pruner(options);
  pruner.Rebuild(catalog, &pool);

  // The pruner reads only signatures and column counts: rebuilding it must
  // not map the evicted corpus back in.
  EXPECT_LE(catalog.ResidentCellBytes(), storage.memory_budget_bytes);

  // An exhaustive build scores every cross-table pair once: N*(N-1)/2 with
  // one column per table. The probe path must do a small fraction of that
  // — the corpus is mostly non-colliding noise.
  const size_t exhaustive = kTables * (kTables - 1) / 2;
  EXPECT_LT(pruner.cumulative_scored_pairs(), exhaustive / 20)
      << "LSH probe path scored a near-linear-scan number of pairs";

  // Totals still account the full pair space, and every planted joinable
  // pair must be on the shortlist.
  const PairPrunerResult result = pruner.Snapshot();
  EXPECT_EQ(result.total_pairs, exhaustive);
  size_t planted = 0;
  for (const ColumnPairCandidate& c : result.shortlist) {
    if (c.b.table == c.a.table + 1 && c.a.table % kJoinEvery == 0) ++planted;
  }
  EXPECT_EQ(planted, kTables / kJoinEvery);
}

}  // namespace
}  // namespace tj
