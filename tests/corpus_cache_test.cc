// Robustness tests for the signature cache and the CSV ingestion path that
// feeds the catalog: malformed, truncated or v1-era cache files, and dumps
// edited to hold numbers or field combinations no sketch computes, must
// fail closed (error out and install nothing — the caller rescans); v2
// entries self-invalidate via per-table content fingerprints; quoted table
// and column names round-trip through the shared EscapeForDisplay decoder;
// and AddCsvDirectory survives the awkward corners of real CSV files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/catalog.h"
#include "corpus/signature.h"
#include "datagen/corpus.h"
#include "table/csv.h"

namespace tj {
namespace {

SynthCorpus SmallCorpus(uint64_t seed = 7) {
  SynthCorpusOptions options;
  options.num_joinable_pairs = 2;
  options.num_noise_tables = 1;
  options.rows = 20;
  options.seed = seed;
  return GenerateSynthCorpus(options);
}

TableCatalog BuildCatalog(const SynthCorpus& corpus) {
  TableCatalog catalog;
  for (const Table& table : corpus.tables) {
    auto added = catalog.AddTable(table);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
  }
  return catalog;
}

void ExpectNothingInstalled(const TableCatalog& catalog) {
  for (const ColumnRef ref : catalog.AllColumns()) {
    EXPECT_FALSE(catalog.HasSignature(ref));
  }
}

/// Replaces the first value written after `key` (e.g. "rows=", "minhash ")
/// in a dump, leaving every other byte — fingerprints included — intact.
std::string EditFirst(std::string dump, const std::string& key,
                      const std::string& value) {
  const size_t pos = dump.find(key);
  EXPECT_NE(pos, std::string::npos) << key;
  const size_t begin = pos + key.size();
  const size_t end = dump.find_first_of(" \n", begin);
  return dump.replace(begin, end - begin, value);
}

TEST(SignatureCache, SerializesAsV2WithFingerprints) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();
  EXPECT_EQ(dump.rfind("# tj-signatures v2", 0), 0u);
  EXPECT_NE(dump.find(" fp="), std::string::npos);
}

TEST(SignatureCache, MalformedDumpsFailClosed) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();
  const uint64_t rows = std::stoull(dump.substr(dump.find("rows=") + 5));
  const uint64_t maxlen =
      std::stoull(dump.substr(dump.find("maxlen=") + 7));
  ASSERT_GT(std::stoull(dump.substr(dump.find("distinct=") + 9)), 0u);
  const uint64_t charset =
      std::stoull(dump.substr(dump.find("charset=") + 8));
  const std::string twenty_digits = "99999999999999999999";

  const std::vector<std::string> malformed = {
      "",                                     // empty
      "garbage",                              // no header
      "# tj-signatures v3\n",                 // unknown version
      "# tj-signatures v2\ngarbage\n",        // junk line
      "# tj-signatures v2\ntable 'x'\n",      // table before options
      // Options disagreeing with the catalog's sketch parameters.
      "# tj-signatures v2\noptions ngram=4 hashes=9 seed=1 lowercase=1\n",
      // The fingerprint-less v1 format is no longer read: a v1 header fails
      // closed like any unknown one, whatever follows it.
      "# tj-signatures v1" + dump.substr(dump.find('\n')),
      // One field of a real dump edited, its fingerprints left valid. Each
      // once installed a sketch no fresh run computes: a wrapped or
      // saturated integer, a NaN or infinite mean length, lowercase=2.
      EditFirst(dump, "rows=", std::to_string(rows + (uint64_t{1} << 32))),
      EditFirst(dump, "rows=", std::to_string(rows + 1)),  // row-count drift
      EditFirst(dump, "rows=", "+" + std::to_string(rows)),
      EditFirst(dump, "minlen=", "4294967296"),
      EditFirst(dump, "maxlen=", "4294967296"),
      EditFirst(dump, "distinct=", twenty_digits),
      EditFirst(dump, "charset=", twenty_digits),
      EditFirst(dump, "minhash ", twenty_digits),
      EditFirst(dump, "fp=", twenty_digits),
      EditFirst(dump, "meanlen=", "nan"),
      EditFirst(dump, "meanlen=", "inf"),
      EditFirst(dump, "meanlen=", "-0x1p+2"),
      EditFirst(dump, "meanlen=", "0x1p+2x"),
      EditFirst(dump, "lowercase=", "2"),
      // Fields that each parse but contradict the sketch: a charset bit
      // past kCharsetOther, the upper-case bit (sketches classify
      // lowercased text), minlen above maxlen, a mean length past maxlen or
      // below minlen (the first column's cells are not empty).
      EditFirst(dump, "charset=", "64"),
      EditFirst(dump, "charset=", std::to_string(charset | kCharsetUpper)),
      EditFirst(dump, "charset=", "4294967295"),
      EditFirst(dump, "minlen=", std::to_string(maxlen + 1)),
      EditFirst(dump, "meanlen=", "0x1p+40"),
      EditFirst(dump, "meanlen=", "0x0p+0"),
      // Minhash slots that contradict distinct=: grams counted but a slot
      // left empty, or no grams counted but slots set (the first column
      // sketched grams, so its slots are all set). Either would let the
      // batch scan and the LSH probe disagree on the pair.
      EditFirst(dump, "minhash ", std::to_string(kEmptyMinhashSlot)),
      EditFirst(dump, "distinct=", "0"),
  };
  for (const std::string& text : malformed) {
    ASSERT_NE(text, dump);
    TableCatalog target = BuildCatalog(corpus);
    EXPECT_FALSE(target.LoadSignatures(text).ok())
        << text.substr(0, text.find("minhash"));
    ExpectNothingInstalled(target);
  }
}

TEST(SignatureCache, TruncatedDumpsFailClosed) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  // Cut inside the final minhash line: the dangling column must error.
  const size_t last_minhash = dump.rfind("minhash");
  ASSERT_NE(last_minhash, std::string::npos);
  {
    TableCatalog target = BuildCatalog(corpus);
    const std::string truncated = dump.substr(0, last_minhash);
    EXPECT_FALSE(target.LoadSignatures(truncated).ok());
    ExpectNothingInstalled(target);
  }
  // Cut mid-way through the minhash numbers: slot-count check trips.
  {
    TableCatalog target = BuildCatalog(corpus);
    const std::string truncated = dump.substr(0, last_minhash + 40);
    EXPECT_FALSE(target.LoadSignatures(truncated).ok());
    ExpectNothingInstalled(target);
  }
}

TEST(SignatureCache, EscapedNamesRoundTrip) {
  // Names holding a quote, a backslash, a tab and a byte >= 0x80 are
  // written with EscapeForDisplay and read back by the shared decoder.
  const std::string table_name = "it's\\a\tb\xe9";
  const std::string column_name = "c\xff'\\\t";
  const auto build = [&] {
    TableCatalog catalog;
    Table table(table_name);
    EXPECT_TRUE(
        table.AddColumn(Column(column_name, {"alpha", "beta", "gamma"})).ok());
    EXPECT_TRUE(table.AddColumn(Column("plain", {"1", "2", "3"})).ok());
    EXPECT_TRUE(catalog.AddTable(std::move(table)).ok());
    return catalog;
  };
  TableCatalog catalog = build();
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();
  EXPECT_NE(dump.find("table 'it\\'s\\\\a\\tb\\xe9' fp="),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("column 'c\\xff\\'\\\\\\t' rows=3"),
            std::string::npos)
      << dump;

  TableCatalog reloaded = build();
  const Status loaded = reloaded.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : catalog.AllColumns()) {
    ASSERT_TRUE(reloaded.HasSignature(ref));
    EXPECT_TRUE(reloaded.signature(ref) == catalog.signature(ref));
  }
  EXPECT_EQ(reloaded.SerializeSignatures(), dump);

  // A malformed escape inside a name fails closed.
  std::string bad = dump;
  const size_t escape = bad.find("\\xe9");
  ASSERT_NE(escape, std::string::npos);
  bad.replace(escape, 4, "\\xZ9");
  TableCatalog target = build();
  EXPECT_FALSE(target.LoadSignatures(bad).ok());
  ExpectNothingInstalled(target);
}

TEST(SignatureCache, V2StaleFingerprintSelfInvalidates) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  // Mutate one table's content; its block must be skipped on reload while
  // every other table's sketches install.
  TableCatalog stale = BuildCatalog(corpus);
  Table mutated = corpus.tables[0];
  mutated.mutable_column(0).Set(0, "content drifted since cache write");
  auto updated = stale.UpdateTable(std::move(mutated));
  ASSERT_TRUE(updated.ok());
  const Status loaded = stale.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : stale.AllColumns()) {
    if (ref.table == *updated) {
      EXPECT_FALSE(stale.HasSignature(ref)) << "stale sketch served";
    } else {
      EXPECT_TRUE(stale.HasSignature(ref));
    }
  }
  // The next compute pass re-sketches only the mutated table, after which
  // a new dump carries its fresh fingerprint.
  stale.ComputeSignatures();
  const std::string redump = stale.SerializeSignatures();
  TableCatalog verify = BuildCatalog(corpus);
  ASSERT_TRUE(verify.UpdateTable([&] {
                      Table again = corpus.tables[0];
                      again.mutable_column(0).Set(
                          0, "content drifted since cache write");
                      return again;
                    }())
                  .ok());
  ASSERT_TRUE(verify.LoadSignatures(redump).ok());
  for (const ColumnRef ref : verify.AllColumns()) {
    EXPECT_TRUE(verify.HasSignature(ref));
  }
}

TEST(SignatureCache, V2UnknownTableBlockIsSkipped) {
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string dump = catalog.SerializeSignatures();

  // The catalog dropped a table since the cache was written: its block is
  // stale and skipped, the rest installs.
  TableCatalog shrunk = BuildCatalog(corpus);
  const std::string removed = corpus.tables[0].name();
  ASSERT_TRUE(shrunk.RemoveTable(removed).ok());
  const Status loaded = shrunk.LoadSignatures(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const ColumnRef ref : shrunk.AllColumns()) {
    EXPECT_TRUE(shrunk.HasSignature(ref));
  }
}

TEST(SignatureCache, FileRoundTripAcrossCatalogMutation) {
  namespace fs = std::filesystem;
  const SynthCorpus corpus = SmallCorpus();
  TableCatalog catalog = BuildCatalog(corpus);
  catalog.ComputeSignatures();
  const std::string path =
      (fs::path(::testing::TempDir()) / "cache_v2.tj").string();
  ASSERT_TRUE(catalog.SaveSignaturesToFile(path).ok());

  TableCatalog reloaded = BuildCatalog(corpus);
  ASSERT_TRUE(reloaded.LoadSignaturesFromFile(path).ok());
  for (const ColumnRef ref : catalog.AllColumns()) {
    EXPECT_TRUE(reloaded.signature(ref) == catalog.signature(ref));
  }
}

// ---------------------------------------------------------------------------
// CSV edge cases feeding the catalog through AddCsvDirectory.
// ---------------------------------------------------------------------------

class CsvEdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid and a per-process counter: concurrent test processes (ctest
    // -j) can see the same fixture address, e.g. under TSan's fixed heap.
    static int fixtures = 0;
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("csv_edge_" + std::to_string(::getpid()) + "_" +
            std::to_string(fixtures++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void WriteFile(const std::string& name, const std::string& bytes) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  std::filesystem::path dir_;
};

TEST_F(CsvEdgeCaseTest, QuotedSeparatorsAndEscapedQuotes) {
  WriteFile("quoted.csv",
            "name,address\n"
            "\"Smith, John\",\"123 Main St, Apt 4\"\n"
            "\"says \"\"hi\"\"\",plain\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(catalog.num_tables(), 1u);
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_columns(), 2u);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).Get(0), "Smith, John");
  EXPECT_EQ(table.column(1).Get(0), "123 Main St, Apt 4");
  EXPECT_EQ(table.column(0).Get(1), "says \"hi\"");
}

TEST_F(CsvEdgeCaseTest, CrlfLineEndings) {
  WriteFile("crlf.csv", "a,b\r\nv1,v2\r\nv3,v4\r\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).name(), "a");
  EXPECT_EQ(table.column(1).Get(1), "v4");  // no trailing \r in cells
}

TEST_F(CsvEdgeCaseTest, EmptyTrailingColumns) {
  WriteFile("trailing.csv",
            "a,b,c\n"
            "1,,\n"
            ",,3\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_columns(), 3u);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.column(0).Get(0), "1");
  EXPECT_EQ(table.column(1).Get(0), "");
  EXPECT_EQ(table.column(2).Get(0), "");
  EXPECT_EQ(table.column(0).Get(1), "");
  EXPECT_EQ(table.column(2).Get(1), "3");
}

TEST_F(CsvEdgeCaseTest, NonUtf8BytesSurviveAndSketchCleanly) {
  std::string bytes = "id,blob\n";
  bytes += "r1,";
  bytes += '\xff';
  bytes += '\xfe';
  bytes += "latin1:";
  bytes += '\xe9';  // é in Latin-1, invalid UTF-8 lead byte position
  bytes += "\nr2,plain\n";
  WriteFile("binary.csv", bytes);
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Table& table = catalog.table(0);
  ASSERT_EQ(table.num_rows(), 2u);
  const std::string_view cell = table.column(1).Get(0);
  EXPECT_EQ(cell.size(), 10u);
  EXPECT_EQ(static_cast<unsigned char>(cell[0]), 0xffu);

  // The signature pass classifies the raw bytes as "other" and neither
  // crashes nor loses the row; the cache round-trips the stats exactly.
  catalog.ComputeSignatures();
  const ColumnSignature& sig = catalog.signature(ColumnRef{0, 1});
  EXPECT_EQ(sig.num_rows, 2u);
  EXPECT_TRUE(sig.charset_mask & kCharsetOther);
  TableCatalog reloaded;
  ASSERT_TRUE(reloaded.AddCsvDirectory(dir_.string()).ok());
  ASSERT_TRUE(reloaded.LoadSignatures(catalog.SerializeSignatures()).ok());
  EXPECT_TRUE(reloaded.signature(ColumnRef{0, 1}) == sig);
}

TEST_F(CsvEdgeCaseTest, MixedDirectoryLoadsEveryFile) {
  WriteFile("a_quoted.csv", "x\n\"a,b\"\n");
  WriteFile("b_crlf.csv", "x\r\nv\r\n");
  WriteFile("c_plain.csv", "x\nv\n");
  WriteFile("ignored.txt", "not,a,csv\n");
  TableCatalog catalog;
  const auto report = catalog.AddCsvDirectory(dir_.string());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(catalog.num_tables(), 3u);
  EXPECT_EQ(catalog.table(0).name(), "a_quoted");
  EXPECT_EQ(catalog.table(1).name(), "b_crlf");
  EXPECT_EQ(catalog.table(2).name(), "c_plain");
}

}  // namespace
}  // namespace tj
