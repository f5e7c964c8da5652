// Tests for Transformation: apply/covers semantics, normalization,
// duplicate removal in the store, and the unit interner.

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/transformation.h"
#include "core/transformation_store.h"
#include "core/unit_interner.h"

namespace tj {
namespace {

class TransformationTest : public ::testing::Test {
 protected:
  UnitId Lit(const std::string& s) {
    return units_.Intern(Unit::MakeLiteral(s));
  }
  UnitId Sub(int32_t s, int32_t e) {
    return units_.Intern(Unit::MakeSubstr(s, e));
  }
  UnitId Split(char c, int32_t i) {
    return units_.Intern(Unit::MakeSplit(c, i));
  }

  UnitInterner units_;
};

TEST_F(TransformationTest, ApplyConcatenatesUnitOutputs) {
  // The paper's §3.2 result in our 0-based convention:
  // <SplitSubstr(' ',1,0,1), Literal(' '), Split(',',0)>.
  const Transformation t({
      units_.Intern(Unit::MakeSplitSubstr(' ', 1, 0, 1)),
      Lit(" "),
      Split(',', 0),
  });
  EXPECT_EQ(t.Apply("bowling, michael", units_),
            std::optional<std::string>("m bowling"));
  EXPECT_EQ(t.Apply("gosgnach, simon", units_),
            std::optional<std::string>("s gosgnach"));
}

TEST_F(TransformationTest, ApplyFailsWhenAnyUnitFails) {
  const Transformation t({Sub(0, 3), Split('|', 1)});
  EXPECT_EQ(t.Apply("abcdef", units_), std::nullopt);  // no '|' piece 1
  EXPECT_EQ(t.Apply("ab", units_), std::nullopt);      // substr too long
}

TEST_F(TransformationTest, CoversMatchesApplyEquality) {
  const Transformation t({Split(',', 0), Lit("!")});
  EXPECT_TRUE(t.Covers("abc,def", "abc!", units_));
  EXPECT_FALSE(t.Covers("abc,def", "abc", units_));   // prefix only
  EXPECT_FALSE(t.Covers("abc,def", "abc!x", units_)); // target longer
  EXPECT_FALSE(t.Covers("abc,def", "abX!", units_));  // mismatch
}

TEST_F(TransformationTest, CoversEmptyTargetOnlyWithEmptyOutput) {
  const Transformation empty;
  EXPECT_TRUE(empty.Covers("src", "", units_));
  EXPECT_FALSE(empty.Covers("src", "x", units_));
}

TEST_F(TransformationTest, NormalizedMergesAdjacentLiterals) {
  const Transformation t = Transformation::Normalized(
      {Lit("a"), Lit("b"), Sub(0, 1), Lit("c"), Lit("d"), Lit("e")},
      &units_);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(units_.Get(t.units()[0]).literal, "ab");
  EXPECT_EQ(units_.Get(t.units()[2]).literal, "cde");
}

TEST_F(TransformationTest, NormalizedEqualsForDifferentLiteralSplits) {
  const Transformation a =
      Transformation::Normalized({Lit("ab"), Sub(0, 1)}, &units_);
  const Transformation b =
      Transformation::Normalized({Lit("a"), Lit("b"), Sub(0, 1)}, &units_);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST_F(TransformationTest, NumPlaceholderUnitsCountsNonConstants) {
  const Transformation t({Sub(0, 1), Lit("x"), Split(',', 0)});
  EXPECT_EQ(t.NumPlaceholderUnits(units_), 2u);
}

TEST_F(TransformationTest, ToStringListsUnits) {
  const Transformation t({Sub(0, 7), Lit(". ")});
  EXPECT_EQ(t.ToString(units_), "<Substr(0,7), Literal('. ')>");
}

TEST_F(TransformationTest, StoreDeduplicates) {
  // Appends keep every copy; coverage under enable_dedup seals the store,
  // keeping each sequence at its first id.
  TransformationStore store;
  const std::vector<UnitId> t1 = {Sub(0, 1), Lit("x")};
  const std::vector<UnitId> t3 = {Sub(0, 2)};
  EXPECT_EQ(store.Append(t1), 0u);
  EXPECT_EQ(store.Append(t1), 1u);
  EXPECT_EQ(store.Append(t3), 2u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_FALSE(store.sealed());
  DiscoveryStats stats;
  const CoverageIndex index = ComputeCoverage(store, units_, {{"ab", "ax"}},
                                              DiscoveryOptions(), &stats);
  EXPECT_TRUE(store.sealed());
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(stats.unique_transformations, 2u);
  EXPECT_EQ(store.Get(0).units(), t1);
  EXPECT_EQ(store.Get(1).units(), t3);
  EXPECT_EQ(index.num_transformations(), 2u);
  EXPECT_EQ(index.Count(0), 1u);
}

TEST_F(TransformationTest, StoreDedupDisabledKeepsDuplicates) {
  TransformationStore store;
  const std::vector<UnitId> t = {Sub(0, 1)};
  store.Append(t);
  store.Append(t);
  DiscoveryOptions options;
  options.enable_dedup = false;
  DiscoveryStats stats;
  const CoverageIndex index =
      ComputeCoverage(store, units_, {{"a", "a"}}, options, &stats);
  EXPECT_FALSE(store.sealed());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(index.Count(0), 1u);
  EXPECT_EQ(index.Count(1), 1u);
}

TEST_F(TransformationTest, SealCompactsTheKeptIdsInOrder) {
  TransformationStore store;
  const std::vector<UnitId> a = {Sub(0, 1), Lit("x")};
  const std::vector<UnitId> b = {Sub(0, 2)};
  const std::vector<UnitId> empty;
  for (const auto* units : {&a, &empty, &a, &b, &empty, &a}) {
    store.Append(*units);
  }
  DynamicBitset keep(6);
  for (const size_t id : {0, 1, 3}) keep.Set(id);
  constexpr TransformationId kDrop = TransformationStore::kDropped;
  EXPECT_EQ(store.Seal(keep),
            (std::vector<TransformationId>{0, 1, kDrop, 2, kDrop, kDrop}));
  EXPECT_TRUE(store.sealed());
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.Get(0).units(), a);
  EXPECT_TRUE(store.Units(1).empty());
  EXPECT_EQ(store.Get(2).units(), b);
  store.Append(b);
  EXPECT_FALSE(store.sealed());
  EXPECT_EQ(store.size(), 4u);
}

TEST(UnitInterner, InterningIsIdempotent) {
  UnitInterner units;
  const UnitId a = units.Intern(Unit::MakeSplit(',', 1));
  const UnitId b = units.Intern(Unit::MakeSplit(',', 1));
  const UnitId c = units.Intern(Unit::MakeSplit(',', 2));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(units.size(), 2u);
  EXPECT_EQ(units.Get(a), Unit::MakeSplit(',', 1));
}

TEST(UnitInterner, ReferencesStableAcrossGrowth) {
  UnitInterner units;
  const UnitId first = units.Intern(Unit::MakeLiteral("stable"));
  const Unit* ptr = &units.Get(first);
  for (int i = 0; i < 1000; ++i) {
    units.Intern(Unit::MakeSubstr(i, i + 1));
  }
  EXPECT_EQ(ptr, &units.Get(first));  // deque storage: no reallocation
  EXPECT_EQ(ptr->literal, "stable");
}

}  // namespace
}  // namespace tj
