// Tests for the corpus-scale discovery subsystem: signature math (pinned
// against a from-first-principles sketch), catalog round-trips, pruner
// recall on synthetic corpora, and end-to-end determinism (bit-identical
// ranked output for every thread count, exactly one ThreadPool per run).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "corpus/catalog.h"
#include "corpus/corpus_discovery.h"
#include "corpus/gram_hash_set.h"
#include "corpus/pair_pruner.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"
#include "table/csv.h"
#include "text/ngram.h"

namespace tj {
namespace {

Column MakeColumn(std::string name, std::vector<std::string> values) {
  return Column(std::move(name), std::move(values));
}

TEST(ColumnSignature, StatsAndCharset) {
  const Column column = MakeColumn(
      "c", {"Alpha Bravo", "charlie-42", "delta"});
  const ColumnSignature sig = ComputeColumnSignature(column);

  EXPECT_EQ(sig.num_rows, 3u);
  EXPECT_EQ(sig.min_length, 5u);
  EXPECT_EQ(sig.max_length, 11u);
  EXPECT_DOUBLE_EQ(sig.mean_length, (11.0 + 10.0 + 5.0) / 3.0);
  // Lowercased before classification: no upper bit.
  EXPECT_TRUE(sig.charset_mask & kCharsetLower);
  EXPECT_FALSE(sig.charset_mask & kCharsetUpper);
  EXPECT_TRUE(sig.charset_mask & kCharsetDigit);
  EXPECT_TRUE(sig.charset_mask & kCharsetSpace);
  EXPECT_TRUE(sig.charset_mask & kCharsetPunct);
  EXPECT_GT(sig.distinct_ngrams, 0u);
  EXPECT_EQ(sig.minhash.size(), kSketchSlots);
}

TEST(ColumnSignature, ContainmentSeparatesSharedFromDisjoint) {
  const Column shared_a = MakeColumn(
      "a", {"university of alberta", "university of toronto"});
  const Column shared_b = MakeColumn(
      "b", {"alberta university", "toronto university"});
  const Column disjoint = MakeColumn("d", {"0123456789", "9876543210"});
  const ColumnSignature sig_a = ComputeColumnSignature(shared_a);
  const ColumnSignature sig_b = ComputeColumnSignature(shared_b);
  const ColumnSignature sig_d = ComputeColumnSignature(disjoint);

  EXPECT_DOUBLE_EQ(EstimateNgramContainment(sig_a, sig_a), 1.0);
  EXPECT_GT(EstimateNgramContainment(sig_a, sig_b), 0.5);
  EXPECT_LT(EstimateNgramContainment(sig_a, sig_d), 0.05);
}

TEST(ColumnSignature, EmptyColumns) {
  const Column empty = MakeColumn("e", {});
  const Column tiny = MakeColumn("t", {"ab"});  // shorter than the gram size
  const ColumnSignature sig_e = ComputeColumnSignature(empty);
  const ColumnSignature sig_t = ComputeColumnSignature(tiny);
  EXPECT_EQ(sig_e.num_rows, 0u);
  EXPECT_EQ(sig_e.distinct_ngrams, 0u);
  EXPECT_EQ(sig_t.distinct_ngrams, 0u);
  EXPECT_DOUBLE_EQ(EstimateNgramContainment(sig_e, sig_t), 0.0);
  EXPECT_DOUBLE_EQ(EstimateJaccard(sig_e, sig_e), 0.0);
}

/// The byte classes as first defined, one branch per class: the bits a
/// signature cache's charset= field holds.
uint32_t ReferenceCharsetBit(unsigned char c) {
  if (c >= 'a' && c <= 'z') return kCharsetLower;
  if (c >= 'A' && c <= 'Z') return kCharsetUpper;
  if (c >= '0' && c <= '9') return kCharsetDigit;
  if (c == ' ' || c == '\t') return kCharsetSpace;
  if (c > ' ' && c < 0x7f) return kCharsetPunct;  // printable non-alnum
  return kCharsetOther;  // non-ASCII / control bytes
}

TEST(CharsetLut, MatchesBranchyReferenceExhaustively) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(CharsetBitOf(static_cast<char>(c)),
              ReferenceCharsetBit(static_cast<unsigned char>(c)))
        << "byte " << c;
  }
}

TEST(CharsetLut, ReferenceClassesAreDisjointAndTotal) {
  int lower = 0, upper = 0, digit = 0, space = 0, punct = 0, other = 0;
  for (int c = 0; c < 256; ++c) {
    const uint32_t bit = CharsetBitOf(static_cast<char>(c));
    // Exactly one class bit per byte.
    EXPECT_EQ(__builtin_popcount(bit), 1) << "byte " << c;
    lower += bit == kCharsetLower;
    upper += bit == kCharsetUpper;
    digit += bit == kCharsetDigit;
    space += bit == kCharsetSpace;
    punct += bit == kCharsetPunct;
    other += bit == kCharsetOther;
  }
  EXPECT_EQ(lower, 26);
  EXPECT_EQ(upper, 26);
  EXPECT_EQ(digit, 10);
  EXPECT_EQ(space, 2);  // ' ' and '\t'
  EXPECT_EQ(punct, 94 - 62);  // printable non-alnum
  EXPECT_EQ(other, 256 - 26 - 26 - 10 - 2 - 32);
}

/// Reference sketch built from first principles: ForEachNgram + HashString
/// + the per-slot min recurrence, with no inlined FNV and no cloned loop.
ColumnSignature ReferenceSignature(const Column& column) {
  ColumnSignature sig;
  sig.num_rows = static_cast<uint32_t>(column.size());
  sig.minhash.assign(kSketchSlots, kEmptyMinhashSlot);
  std::vector<uint64_t> slot_seeds(kSketchSlots);
  for (size_t i = 0; i < kSketchSlots; ++i) {
    slot_seeds[i] = HashCombine(kSketchSeed, i);
  }
  std::unordered_set<uint64_t> distinct;
  uint64_t total_length = 0;
  sig.min_length = column.empty() ? 0 : ~0u;
  for (size_t row = 0; row < column.size(); ++row) {
    std::string text(column.Get(row));
    for (char& c : text) c = ToLowerAsciiChar(c);
    const auto length = static_cast<uint32_t>(text.size());
    total_length += length;
    sig.min_length = std::min(sig.min_length, length);
    sig.max_length = std::max(sig.max_length, length);
    for (char c : text) {
      sig.charset_mask |= ReferenceCharsetBit(static_cast<unsigned char>(c));
    }
    ForEachNgram(text, kSketchNgram, [&](std::string_view g) {
      const uint64_t base = HashString(g);
      if (!distinct.insert(base).second) return;
      for (size_t i = 0; i < slot_seeds.size(); ++i) {
        sig.minhash[i] = std::min(sig.minhash[i], Mix64(base ^ slot_seeds[i]));
      }
    });
  }
  sig.distinct_ngrams = distinct.size();
  if (!column.empty()) {
    sig.mean_length = static_cast<double>(total_length) /
                      static_cast<double>(column.size());
  }
  return sig;
}

/// Seeded random columns of 1..12 cells (every 16th column is empty), each
/// cell 0..130 bytes drawn from all 256 byte values or from a 9-symbol
/// alphabet. Half the cells come from a pool every column draws from, so
/// the sketches of two columns agree in some slots but rarely in all.
std::vector<Column> RandomPinColumns(size_t count) {
  uint64_t state = 0x5eed;
  const auto next = [&state] { return Mix64(state++); };
  const auto random_cell = [&](bool narrow) {
    std::string cell(next() % 131, '\0');
    for (char& c : cell) {
      c = narrow ? "abAB01 ,-"[next() % 9] : static_cast<char>(next() & 0xff);
    }
    return cell;
  };
  std::vector<std::string> pool;
  for (size_t i = 0; i < 64; ++i) pool.push_back(random_cell(i % 2 == 0));
  std::vector<Column> columns;
  for (size_t k = 0; k < count; ++k) {
    Column column("random" + std::to_string(k));
    const size_t rows = k % 16 == 0 ? 0 : 1 + next() % 12;
    for (size_t row = 0; row < rows; ++row) {
      column.Append(next() % 2 == 0 ? pool[next() % pool.size()]
                                    : random_cell(k % 2 == 0));
    }
    columns.push_back(std::move(column));
  }
  return columns;
}

// The two levels are the two codegens of the sketch loops: this binary runs
// the library's clone the loader picks (x86-64-v4 on AVX-512 CPUs, else
// AVX2 where the CPU has it), and the /force_scalar registration runs a
// copy of corpus/signature.cc compiled without vectorization.
TEST(SignaturePin, ComputeColumnSignatureMatchesReferenceAtBothLevels) {
  std::vector<Column> columns = RandomPinColumns(240);
  Column fixed("fixed");
  fixed.Append("New York City");
  fixed.Append("SAN FRANCISCO\t(CA)");
  fixed.Append("  ");
  fixed.Append("x");  // shorter than the gram size
  fixed.Append("");
  fixed.Append("répülőtér \xff\x01 control");  // non-ASCII + control bytes
  fixed.Append("1600 Pennsylvania Ave NW, Washington, DC 20500");
  columns.push_back(std::move(fixed));
  // 2,000 distinct 20-byte cells over a 10-symbol alphabet: ~9,700
  // distinct grams, so the gram set doubles many times, and most grams
  // recur after each doubling (a gram the rehash lost is counted twice).
  Column wide("wide");
  uint64_t state = 0x77;
  std::unordered_set<std::string> wide_cells;
  while (wide_cells.size() < 2000) {
    std::string cell(20, '\0');
    for (char& c : cell) c = "0123456789"[Mix64(state++) % 10];
    if (wide_cells.insert(cell).second) wide.Append(cell);
  }
  columns.push_back(std::move(wide));
  // Every cell repeats one gram: the set holds a single hash.
  columns.push_back(MakeColumn(
      "one_gram", {"aaaa", "AAAAAAAAAAAA", "aaaaa", "aAaAaAaA", "aaaa"}));

  std::vector<ColumnSignature> sigs;
  for (const Column& column : columns) {
    sigs.push_back(ComputeColumnSignature(column));
    ASSERT_TRUE(sigs.back() == ReferenceSignature(column)) << column.name();
  }
  EXPECT_GT(sigs[sigs.size() - 2].distinct_ngrams,
            8 * GramHashSet::kInitialSlots);
  EXPECT_EQ(sigs.back().distinct_ngrams, 1u);

  // EstimateJaccard is the equal-slot count over all slots, and 0 when
  // either column sketched no grams.
  size_t partial_pairs = 0;
  for (size_t i = 0; i < sigs.size(); ++i) {
    for (size_t j = i; j < sigs.size(); ++j) {
      size_t equal = 0;
      for (size_t slot = 0; slot < kSketchSlots; ++slot) {
        equal += sigs[i].minhash[slot] == sigs[j].minhash[slot];
      }
      const bool no_grams =
          sigs[i].distinct_ngrams == 0 || sigs[j].distinct_ngrams == 0;
      ASSERT_EQ(EstimateJaccard(sigs[i], sigs[j]),
                no_grams ? 0.0
                         : static_cast<double>(equal) /
                               static_cast<double>(kSketchSlots))
          << columns[i].name() << " vs " << columns[j].name();
      partial_pairs += !no_grams && equal > 0 && equal < kSketchSlots;
    }
  }
  // The pool must make some pairs agree in some slots but not all.
  EXPECT_GT(partial_pairs, 0u);
}

TEST(GramHashSet, CountsZeroApartAndKeepsEveryHashAcrossGrowth) {
  GramHashSet set;
  EXPECT_TRUE(set.Insert(0));  // 0 marks an empty slot: counted apart
  EXPECT_FALSE(set.Insert(0));
  EXPECT_EQ(set.size(), 1u);
  // Hashes sharing their low 16 bits start probing at the last slot of
  // every table up to 65,536 slots and wrap around to the first; 4,000
  // of them double the table from 256 to 8,192 slots.
  std::vector<uint64_t> hashes;
  for (uint64_t k = 1; k <= 4000; ++k) hashes.push_back(k << 16 | 0xffff);
  size_t added = 0;
  for (const uint64_t hash : hashes) added += set.Insert(hash);
  EXPECT_EQ(added, hashes.size());
  size_t readded = 0;
  for (const uint64_t hash : hashes) readded += set.Insert(hash);
  EXPECT_EQ(readded, 0u);
  EXPECT_FALSE(set.Insert(0));
  EXPECT_EQ(set.size(), hashes.size() + 1);
}

SynthCorpusOptions SmallCorpus() {
  SynthCorpusOptions options;
  options.num_joinable_pairs = 4;
  options.num_noise_tables = 2;
  options.rows = 30;
  options.seed = 7;
  return options;
}

TableCatalog BuildCatalog(const SynthCorpus& corpus) {
  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  return catalog;
}

TEST(TableCatalog, RejectsDuplicateAndUnnamedTables) {
  TableCatalog catalog;
  Table unnamed;
  EXPECT_FALSE(catalog.AddTable(unnamed).ok());
  Table named("t");
  EXPECT_TRUE(catalog.AddTable(named).ok());
  EXPECT_EQ(catalog.AddTable(Table("t")).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(TableCatalog, SignatureRoundTripThroughSerialization) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  TableCatalog reloaded = BuildCatalog(corpus);
  ASSERT_EQ(reloaded.num_columns(), catalog.num_columns());
  const Status loaded = reloaded.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : catalog.AllColumns()) {
    ASSERT_TRUE(reloaded.HasSignature(ref));
    EXPECT_TRUE(reloaded.signature(ref) == catalog.signature(ref))
        << "table " << ref.table << " column " << ref.column;
  }
  // Reloading is idempotent and a second serialization is byte-identical.
  EXPECT_EQ(reloaded.SerializeSignatures(), dump);
}

TEST(TableCatalog, SignatureFileRoundTripAndParallelCompute) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog serial_catalog = BuildCatalog(corpus);
  serial_catalog.ComputeSignatures();

  TableCatalog parallel_catalog = BuildCatalog(corpus);
  ThreadPool pool(4);
  parallel_catalog.ComputeSignatures(&pool);
  for (const ColumnRef ref : serial_catalog.AllColumns()) {
    EXPECT_TRUE(parallel_catalog.signature(ref) ==
                serial_catalog.signature(ref));
  }

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "signatures.tj")
          .string();
  ASSERT_TRUE(serial_catalog.SaveSignaturesToFile(path).ok());
  TableCatalog reloaded = BuildCatalog(corpus);
  ASSERT_TRUE(reloaded.LoadSignaturesFromFile(path).ok());
  for (const ColumnRef ref : serial_catalog.AllColumns()) {
    EXPECT_TRUE(reloaded.signature(ref) == serial_catalog.signature(ref));
  }
}

TEST(TableCatalog, LoadRejectsMalformedAndMismatchedDumps) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  TableCatalog target = BuildCatalog(corpus);
  EXPECT_FALSE(target.LoadSignatures("not a signature dump").ok());

  // A v2 block naming a table this catalog doesn't have is stale, not
  // fatal: the block is skipped, every other table's sketches install.
  std::string renamed = dump;
  const size_t table_pos = renamed.find("table '");
  ASSERT_NE(table_pos, std::string::npos);
  renamed.replace(table_pos, 7, "table 'zz");
  const Status skipped = target.LoadSignatures(renamed);
  ASSERT_TRUE(skipped.ok()) << skipped.ToString();
  size_t missing = 0;
  for (const ColumnRef ref : target.AllColumns()) {
    if (!target.HasSignature(ref)) ++missing;
  }
  // Exactly the renamed table's columns are missing.
  EXPECT_GT(missing, 0u);
  EXPECT_LT(missing, target.num_columns());
}

TEST(TableCatalog, AddCsvDirectoryLoadsInFilenameOrder) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "corpus_csv_dir";
  fs::create_directories(dir);
  Table b("ignored-b");
  ASSERT_TRUE(b.AddColumn(MakeColumn("x", {"bravo", "beta"})).ok());
  Table a("ignored-a");
  ASSERT_TRUE(a.AddColumn(MakeColumn("x", {"alpha"})).ok());
  ASSERT_TRUE(WriteCsvFile(b, (dir / "b_table.csv").string()).ok());
  ASSERT_TRUE(WriteCsvFile(a, (dir / "a_table.csv").string()).ok());

  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->added, 2u);
  EXPECT_EQ(report->skipped, 0u);
  ASSERT_EQ(catalog.num_tables(), 2u);
  EXPECT_EQ(catalog.table(0).name(), "a_table");  // sorted by filename
  EXPECT_EQ(catalog.table(1).name(), "b_table");
  EXPECT_EQ(catalog.table(0).num_rows(), 1u);
  EXPECT_EQ(catalog.table(1).num_rows(), 2u);
}

TEST(PairPruner, GoldenRecallAndPruningOnLargeCorpus) {
  // The acceptance-criteria corpus: >= 20 tables, default thresholds.
  SynthCorpusOptions options;
  options.num_joinable_pairs = 10;  // 20 joinable tables
  options.num_noise_tables = 4;
  options.rows = 40;
  options.seed = 3;
  const SynthCorpus corpus = GenerateSynthCorpus(options);
  ASSERT_GE(corpus.tables.size(), 20u);

  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const PairPrunerResult result =
      ShortlistPairs(catalog, PairPrunerOptions());

  // Every golden joinable pair survives pruning at default thresholds.
  for (const SynthCorpus::GoldenPair& golden : corpus.golden) {
    bool found = false;
    for (const ColumnPairCandidate& candidate : result.shortlist) {
      const bool forward = candidate.a.table == golden.source_table &&
                           candidate.b.table == golden.target_table;
      const bool backward = candidate.a.table == golden.target_table &&
                            candidate.b.table == golden.source_table;
      if ((forward || backward) && candidate.a.column == 0 &&
          candidate.b.column == 0) {
        found = true;
        EXPECT_GT(candidate.score, PairPrunerOptions().min_containment);
      }
    }
    EXPECT_TRUE(found) << "golden pair " << golden.source_table << " x "
                       << golden.target_table << " was pruned";
  }

  // ... while pruning at least half of the column-pair space.
  EXPECT_GE(result.PruningRatio(), 0.5);
  EXPECT_EQ(result.total_pairs,
            result.pruned_pairs + result.shortlist.size());
}

TEST(PairPruner, DeterministicAcrossPoolSizes) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const PairPrunerResult serial =
      ShortlistPairs(catalog, PairPrunerOptions());
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    const PairPrunerResult parallel =
        ShortlistPairs(catalog, PairPrunerOptions(), &pool);
    ASSERT_EQ(parallel.shortlist.size(), serial.shortlist.size()) << threads;
    EXPECT_EQ(parallel.total_pairs, serial.total_pairs);
    EXPECT_EQ(parallel.pruned_pairs, serial.pruned_pairs);
    for (size_t i = 0; i < serial.shortlist.size(); ++i) {
      EXPECT_TRUE(parallel.shortlist[i].a == serial.shortlist[i].a);
      EXPECT_TRUE(parallel.shortlist[i].b == serial.shortlist[i].b);
      EXPECT_EQ(parallel.shortlist[i].score, serial.shortlist[i].score);
    }
  }
}

TEST(PairPruner, BruteForceFloorKeepsEverything) {
  const SynthCorpus corpus = GenerateSynthCorpus(SmallCorpus());
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  PairPrunerOptions brute;
  brute.min_containment = 0.0;
  brute.require_charset_overlap = false;
  brute.min_rows = 0;
  const PairPrunerResult result = ShortlistPairs(catalog, brute);
  EXPECT_EQ(result.pruned_pairs, 0u);
  EXPECT_EQ(result.shortlist.size(), result.total_pairs);
}

void ExpectIdenticalCorpusResults(const CorpusDiscoveryResult& a,
                                  const CorpusDiscoveryResult& b) {
  EXPECT_EQ(a.total_column_pairs, b.total_column_pairs);
  EXPECT_EQ(a.pruned_pairs, b.pruned_pairs);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const CorpusPairResult& x = a.results[i];
    const CorpusPairResult& y = b.results[i];
    EXPECT_TRUE(x.candidate.a == y.candidate.a) << "pair " << i;
    EXPECT_TRUE(x.candidate.b == y.candidate.b) << "pair " << i;
    EXPECT_EQ(x.candidate.score, y.candidate.score) << "pair " << i;
    EXPECT_TRUE(x.source == y.source) << "pair " << i;
    EXPECT_TRUE(x.target == y.target) << "pair " << i;
    EXPECT_EQ(x.learning_pairs, y.learning_pairs) << "pair " << i;
    EXPECT_EQ(x.joined_rows, y.joined_rows) << "pair " << i;
    EXPECT_EQ(x.top_coverage, y.top_coverage) << "pair " << i;
    EXPECT_EQ(x.transformations, y.transformations) << "pair " << i;
  }
}

TEST(CorpusDiscovery, BitIdenticalAcrossThreadCountsWithOnePool) {
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 5;
  corpus_options.num_noise_tables = 3;
  corpus_options.rows = 30;
  corpus_options.seed = 11;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);

  CorpusDiscoveryOptions options;
  options.num_threads = 1;
  TableCatalog base_catalog = BuildCatalog(corpus);
  const CorpusDiscoveryResult base =
      DiscoverJoinableColumns(&base_catalog, options);
  ASSERT_FALSE(base.results.empty());

  for (int threads : {2, 4, 8}) {
    TableCatalog catalog = BuildCatalog(corpus);
    CorpusDiscoveryOptions parallel = options;
    parallel.num_threads = threads;
    const uint64_t pools_before = ThreadPool::TotalCreated();
    const CorpusDiscoveryResult result =
        DiscoverJoinableColumns(&catalog, parallel);
    // The whole run — signatures, pruning, pair fan-out, every per-pair
    // phase — constructed exactly one ThreadPool.
    EXPECT_EQ(ThreadPool::TotalCreated() - pools_before, 1u)
        << threads << " threads";
    ExpectIdenticalCorpusResults(base, result);
  }
}

TEST(CorpusDiscovery, FindsGoldenPairsWithTransformations) {
  SynthCorpusOptions corpus_options;
  corpus_options.num_joinable_pairs = 4;
  corpus_options.num_noise_tables = 2;
  corpus_options.rows = 30;
  corpus_options.seed = 21;
  const SynthCorpus corpus = GenerateSynthCorpus(corpus_options);
  TableCatalog catalog = BuildCatalog(corpus);

  CorpusDiscoveryOptions options;
  options.num_threads = 2;
  const CorpusDiscoveryResult result =
      DiscoverJoinableColumns(&catalog, options);

  // Every golden table pair is evaluated and yields a non-trivial join.
  size_t golden_joined = 0;
  for (const SynthCorpus::GoldenPair& golden : corpus.golden) {
    for (const CorpusPairResult& pair : result.results) {
      const bool matches =
          (pair.source.table == golden.source_table &&
           pair.target.table == golden.target_table) ||
          (pair.source.table == golden.target_table &&
           pair.target.table == golden.source_table);
      if (matches && pair.joined_rows > 0 &&
          !pair.transformations.empty()) {
        ++golden_joined;
        break;
      }
    }
  }
  EXPECT_EQ(golden_joined, corpus.golden.size());
  EXPECT_GE(result.PruningRatio(), 0.5);
}

}  // namespace
}  // namespace tj
