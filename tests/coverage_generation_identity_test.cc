// Identity suite for transformation generation and the seal:
// GenerateTransformationsForRow resolves literal fusion once per skeleton
// and appends to the store's CSR arena, and ComputeCoverage's trie build
// seals the store. The oracle below is the per-tuple path — odometer, then
// Transformation::Normalized on every tuple — feeding a hash-consing store
// that keeps the semantics of the store before the seal existed: an id per
// distinct sequence in first-insertion order (per insertion with dedup
// off). Before the seal the store must hold every generated sequence in
// generation order; after it, the oracle's ids, id by id, with the same
// unit interner and counters. Checked on Synth-N and Synth-NL (40 and 200
// rows, dedup on and off, serial and 2/4/8 threads) and on hand-built rows
// that hit the fusion corner cases. Run with `ctest -L coverage`, in plain
// and ASan+UBSan builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/coverage.h"
#include "core/discovery.h"
#include "core/generator.h"
#include "core/skeleton.h"
#include "core/unit_extraction.h"
#include "datagen/synth.h"
#include "text/lcp.h"

namespace tj {
namespace {

/// Hash-consing store: a sequence's first insertion takes the next id and
/// later ones return it; with dedup off every insertion takes a new id.
class HashConsingStore {
 public:
  void Intern(const std::vector<UnitId>& units, bool dedup) {
    if (dedup && !ids_.try_emplace(units, sequences_.size()).second) return;
    sequences_.push_back(units);
  }

  size_t size() const { return sequences_.size(); }
  /// Sequence `id` at index `id`.
  const std::vector<std::vector<UnitId>>& sequences() const {
    return sequences_;
  }

 private:
  std::map<std::vector<UnitId>, TransformationId> ids_;
  std::vector<std::vector<UnitId>> sequences_;
};

/// The per-tuple generation path, plus two probes that show which fusion
/// cases a row set reached.
struct OracleRun {
  UnitInterner units;
  /// Every normalized tuple in generation order: the unsealed arena.
  std::vector<std::vector<UnitId>> generated;
  HashConsingStore store;
  DiscoveryStats stats;
  /// Most slots fused into one literal by any tuple.
  size_t longest_fused_run = 0;
  /// Placeholder slots whose Literal(text) the per-placeholder cap dropped.
  size_t literal_dropped = 0;
};

void OracleGenerateRow(std::string_view source, std::string_view target,
                       const DiscoveryOptions& options, OracleRun* run) {
  const LcpTable lcp = LcpTable::Build(source, target);
  const std::vector<Skeleton> skeletons =
      EnumerateSkeletons(target, lcp, options);
  if (skeletons.empty()) return;
  run->stats.skeletons += skeletons.size();
  run->stats.placeholders +=
      static_cast<uint64_t>(skeletons[0].num_placeholders);
  const auto is_literal = [&](UnitId id) {
    return run->units.Get(id).kind == UnitKind::kLiteral;
  };

  std::map<std::pair<uint32_t, uint32_t>, std::vector<UnitId>> memo;
  size_t remaining = options.max_transformations_per_row;
  bool capped = false;
  for (const Skeleton& skeleton : skeletons) {
    if (remaining == 0) {
      capped = true;
      break;
    }
    std::vector<std::vector<UnitId>> slots;
    bool dead_slot = false;
    for (const SkeletonBlock& block : skeleton.blocks) {
      if (!block.is_placeholder) {
        slots.push_back({run->units.Intern(Unit::MakeLiteral(std::string(
            target.substr(block.begin, block.end - block.begin))))});
        continue;
      }
      const auto [it, fresh] = memo.try_emplace({block.begin, block.end});
      if (fresh) {
        ExtractUnitsForPlaceholder(source, target, block, options,
                                   &run->units, &it->second);
        if (std::none_of(it->second.begin(), it->second.end(), is_literal)) {
          ++run->literal_dropped;
        }
      }
      if (it->second.empty()) {
        dead_slot = true;
        break;
      }
      slots.push_back(it->second);
    }
    if (dead_slot || slots.empty()) continue;

    std::vector<size_t> cursor(slots.size(), 0);
    for (;;) {
      std::vector<UnitId> tuple;
      size_t run_length = 0;
      for (size_t i = 0; i < slots.size(); ++i) {
        tuple.push_back(slots[i][cursor[i]]);
        run_length = is_literal(tuple.back()) ? run_length + 1 : 0;
        run->longest_fused_run = std::max(run->longest_fused_run, run_length);
      }
      run->generated.push_back(
          Transformation::Normalized(tuple, &run->units).units());
      run->store.Intern(run->generated.back(), options.enable_dedup);
      ++run->stats.generated_transformations;
      if (--remaining == 0) {
        capped = true;
        break;
      }
      size_t i = 0;
      for (; i < slots.size(); ++i) {
        if (++cursor[i] < slots[i].size()) break;
        cursor[i] = 0;
      }
      if (i == slots.size()) break;
    }
    if (remaining == 0) break;
  }
  if (capped) ++run->stats.rows_capped;
}

OracleRun OracleGenerate(const std::vector<ExamplePair>& rows,
                         const DiscoveryOptions& options) {
  OracleRun run;
  for (const ExamplePair& row : rows) {
    OracleGenerateRow(row.source, row.target, options, &run);
  }
  return run;
}

/// `store` holds `want`'s sequences, id by id; Units and Get agree.
void ExpectSequences(const std::vector<std::vector<UnitId>>& want,
                     const TransformationStore& store) {
  ASSERT_EQ(store.size(), want.size());
  for (TransformationId t = 0; t < store.size(); ++t) {
    const std::span<const UnitId> got = store.Units(t);
    ASSERT_TRUE(std::ranges::equal(got, want[t])) << "transformation " << t;
    ASSERT_EQ(store.Get(t).units(), want[t]) << "transformation " << t;
  }
}

/// Same interner as the oracle, and the sealed store holds the hash-consing
/// store's sequences under its ids.
void ExpectSameStore(const OracleRun& oracle, const UnitInterner& units,
                     const TransformationStore& store) {
  ASSERT_EQ(units.size(), oracle.units.size());
  for (UnitId u = 0; u < units.size(); ++u) {
    ASSERT_EQ(units.Get(u), oracle.units.Get(u)) << "unit " << u;
  }
  ExpectSequences(oracle.store.sequences(), store);
}

/// Runs the generator serially on `rows` and checks it against the oracle:
/// the appended store, then the sealed store, the interner and every
/// generation counter.
OracleRun ExpectSerialIdentity(const std::vector<ExamplePair>& rows,
                               const DiscoveryOptions& options) {
  OracleRun oracle = OracleGenerate(rows, options);
  UnitInterner units;
  TransformationStore store;
  DiscoveryStats stats;
  for (const ExamplePair& row : rows) {
    GenerateTransformationsForRow(row.source, row.target, options, &units,
                                  &store, &stats);
  }
  ExpectSequences(oracle.generated, store);
  EXPECT_EQ(stats.generated_transformations,
            oracle.stats.generated_transformations);
  EXPECT_EQ(stats.rows_capped, oracle.stats.rows_capped);
  EXPECT_EQ(stats.skeletons, oracle.stats.skeletons);
  EXPECT_EQ(stats.placeholders, oracle.stats.placeholders);
  EXPECT_EQ(store.size(), stats.generated_transformations);

  ComputeCoverage(store, units, rows, options, &stats);
  ExpectSameStore(oracle, units, store);
  EXPECT_EQ(store.sealed(), options.enable_dedup);
  if (options.enable_dedup) {
    EXPECT_EQ(stats.unique_transformations, oracle.store.size());
  } else {
    // Ablation mode: every generated copy is kept.
    EXPECT_EQ(store.size(), stats.generated_transformations);
  }
  return oracle;
}

// ---- Generated rows -------------------------------------------------------

struct SynthCase {
  const char* name;
  bool long_rows;  // Synth-NL (40-70 chars) instead of Synth-N (20-35)
  size_t rows;
  bool dedup;
};

// Keeps ctest's test names (which embed the printed parameter) stable.
void PrintTo(const SynthCase& c, std::ostream* os) { *os << c.name; }

class GenerationIdentityTest : public ::testing::TestWithParam<SynthCase> {};

TEST_P(GenerationIdentityTest, MatchesPerTupleNormalizationAtEveryThreadCount) {
  const SynthCase& c = GetParam();
  const SynthDataset ds = GenerateSynth(c.long_rows ? SynthNL(c.rows, 17)
                                                    : SynthN(c.rows, 17));
  const std::vector<ExamplePair> rows =
      MakeExamplePairs(ds.pair.SourceColumn(), ds.pair.TargetColumn(),
                       ds.pair.golden.pairs());
  DiscoveryOptions options;
  options.enable_dedup = c.dedup;
  const OracleRun oracle = ExpectSerialIdentity(rows, options);
  ASSERT_GT(oracle.store.size(), 0u);
  EXPECT_GE(oracle.longest_fused_run, 2u);
  if (c.dedup) {
    // The rows generate duplicates, so the seal drops some ids.
    EXPECT_LT(oracle.store.size(), oracle.generated.size());
  }

  // Parallel discovery concatenates shard stores, then seals; the result
  // must still be the serial per-tuple one.
  for (int threads : {1, 2, 4, 8}) {
    DiscoveryOptions parallel = options;
    parallel.num_threads = threads;
    const DiscoveryResult result = DiscoverTransformations(rows, parallel);
    ExpectSameStore(oracle, result.units, result.store);
    EXPECT_EQ(result.stats.generated_transformations,
              oracle.stats.generated_transformations)
        << threads;
    EXPECT_EQ(result.stats.unique_transformations, oracle.store.size())
        << threads;
    EXPECT_EQ(result.stats.rows_capped, oracle.stats.rows_capped) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Synth, GenerationIdentityTest,
    ::testing::Values(SynthCase{"N40", false, 40, true},
                      SynthCase{"N40_nodedup", false, 40, false},
                      SynthCase{"N200", false, 200, true},
                      SynthCase{"N200_nodedup", false, 200, false},
                      SynthCase{"NL40", true, 40, true},
                      SynthCase{"NL40_nodedup", true, 40, false},
                      SynthCase{"NL200", true, 200, true},
                      SynthCase{"NL200_nodedup", true, 200, false}),
    [](const ::testing::TestParamInfo<SynthCase>& info) {
      return std::string(info.param.name);
    });

// ---- Hand-built rows ------------------------------------------------------

TEST(GenerationCornerCaseTest, TwoSlotFusedRun) {
  // <P("abcd"), L(":")>: Literal("abcd") + Literal(":") fuse into one.
  const std::vector<ExamplePair> rows = {{"abcd", "abcd:"},
                                         {"wxyz", "wxyz:"}};
  for (bool dedup : {true, false}) {
    DiscoveryOptions options;
    options.enable_dedup = dedup;
    const OracleRun oracle = ExpectSerialIdentity(rows, options);
    EXPECT_EQ(oracle.longest_fused_run, 2u) << dedup;
  }
}

TEST(GenerationCornerCaseTest, FusedRunOfThreeOrMoreSlots) {
  // <L("<"), P("ab"), L("/"), P("cd"), L(">")>: choosing both placeholders'
  // literals fuses all five slots.
  const std::vector<ExamplePair> rows = {{"ab_cd", "<ab/cd>"},
                                         {"ef_gh", "<ef/gh>"},
                                         {"ab_cd", "<ab/cd>"}};
  for (bool dedup : {true, false}) {
    DiscoveryOptions options;
    options.enable_dedup = dedup;
    const OracleRun oracle = ExpectSerialIdentity(rows, options);
    EXPECT_EQ(oracle.longest_fused_run, 5u) << dedup;
  }
}

TEST(GenerationCornerCaseTest, CapDropsAPlaceholdersLiteral) {
  // Two candidates per placeholder: Literal(text), listed last, is cut, so
  // only the literal blocks can fuse.
  const std::vector<ExamplePair> rows = {{"ab_cd", "<ab/cd>"},
                                         {"john smith", "smith, john!"}};
  DiscoveryOptions options;
  options.max_units_per_placeholder = 2;
  const OracleRun oracle = ExpectSerialIdentity(rows, options);
  EXPECT_GT(oracle.literal_dropped, 0u);
  EXPECT_GT(oracle.store.size(), 0u);
}

TEST(GenerationCornerCaseTest, RowCapInTheMiddleOfASkeleton) {
  const std::vector<ExamplePair> rows = {{"ab_cd", "<ab/cd>"},
                                         {"john smith", "smith, john!"}};
  for (size_t cap : {1u, 5u, 13u}) {
    DiscoveryOptions options;
    options.max_transformations_per_row = cap;
    const OracleRun oracle = ExpectSerialIdentity(rows, options);
    EXPECT_EQ(oracle.stats.rows_capped, 2u) << cap;
    EXPECT_EQ(oracle.stats.generated_transformations, 2 * cap) << cap;
  }
}

TEST(GenerationCornerCaseTest, TokenizedVariantsShareBlocks) {
  // Both maximal placeholders hold a separator, so the base skeleton, the
  // variants tokenizing one of them and the one tokenizing both share
  // blocks through the per-row unit memo.
  const std::vector<ExamplePair> rows = {
      {"ab cd|ef gh", "ab cd/ef gh"}, {"mary ann|lee", "mary ann/lee"}};
  for (bool dedup : {true, false}) {
    DiscoveryOptions options;
    options.enable_dedup = dedup;
    const OracleRun oracle = ExpectSerialIdentity(rows, options);
    EXPECT_GE(oracle.stats.skeletons, 2 * 3u) << dedup;
    EXPECT_GE(oracle.longest_fused_run, 3u) << dedup;
  }
}

}  // namespace
}  // namespace tj
