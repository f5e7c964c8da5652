// Tests for the transformation rule-set serialization (save / load / apply —
// the paper's §8 "transfer" workflow).

#include "core/serialization.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/discovery.h"

namespace tj {
namespace {

TEST(ParseUnit, AllKindsRoundTrip) {
  const Unit units[] = {
      Unit::MakeLiteral("@ualberta.ca"),
      Unit::MakeLiteral("with 'quote' and \\slash\\"),
      Unit::MakeLiteral("tab\there"),
      Unit::MakeSubstr(0, 7),
      Unit::MakeSplit(',', 0),
      Unit::MakeSplit(' ', 3),
      Unit::MakeSplitSubstr(' ', 1, 0, 1),
      Unit::MakeTwoCharSplitSubstr('(', ')', 0, 0, 3),
  };
  for (const Unit& u : units) {
    const auto parsed = ParseUnit(u.ToString());
    ASSERT_TRUE(parsed.ok()) << u.ToString() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(*parsed, u) << u.ToString();
  }
}

TEST(ParseUnit, NonPrintableLiteralRoundTrips) {
  const Unit u = Unit::MakeLiteral(std::string("\x01\x7f", 2));
  const auto parsed = ParseUnit(u.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, u);
}

TEST(ParseUnit, RejectsMalformedInput) {
  EXPECT_FALSE(ParseUnit("Frobnicate(1,2)").ok());
  EXPECT_FALSE(ParseUnit("Substr(1)").ok());
  EXPECT_FALSE(ParseUnit("Substr(1,2) trailing").ok());
  EXPECT_FALSE(ParseUnit("Split(',')").ok());
  EXPECT_FALSE(ParseUnit("Literal('unterminated)").ok());
  EXPECT_FALSE(ParseUnit("Split('ab',1)").ok());  // multi-char delimiter
}

TEST(ParseUnit, RejectsIntegersOutsideInt32) {
  // Each of these once wrapped into another unit or threw out of the parser.
  for (const char* text :
       {"Substr(0,4294967297)", "Split(',',-4294967295)",
        "Substr(0,2147483648)", "Substr(0,99999999999999999999)"}) {
    const auto parsed = ParseUnit(text);
    ASSERT_FALSE(parsed.ok()) << text << " parsed as " << parsed->ToString();
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(parsed.status().message().find("offset"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ParseUnit, Int32ExtremesRoundTrip) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  for (const Unit& u : {Unit::MakeSubstr(kMin, kMax),
                        Unit::MakeSplitSubstr(';', kMax, kMin, kMin),
                        Unit::MakeTwoCharSplitSubstr('(', ')', kMin, kMax,
                                                     kMax)}) {
    const auto parsed = ParseUnit(u.ToString());
    ASSERT_TRUE(parsed.ok()) << u.ToString() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(*parsed, u) << u.ToString();
  }
}

TEST(ParseUnit, HexEscapeNeedsExactlyTwoHexDigits) {
  const auto a = ParseUnit("Literal('\\x41')");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(*a, Unit::MakeLiteral("A"));
  const auto again = ParseUnit(a->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *a);

  for (const char* text : {"Literal('\\xZZ')", "Literal('\\x4Z')",
                           "Literal('\\x-1')", "Literal('\\x4')",
                           "Literal('\\x4"}) {
    const auto parsed = ParseUnit(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(ParseTransformation, RoundTripsPrettyForm) {
  UnitInterner interner;
  const std::string text =
      "<SplitSubstr(' ',1,0,1), Literal(' '), Split(',',0)>";
  const auto t = ParseTransformation(text, &interner);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->ToString(interner), text);
  EXPECT_EQ(t->Apply("bowling, michael", interner),
            std::optional<std::string>("m bowling"));
}

TEST(ParseTransformation, EmptyTransformation) {
  UnitInterner interner;
  const auto t = ParseTransformation("<>", &interner);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->empty());
}

TEST(ParseTransformation, RejectsMalformed) {
  UnitInterner interner;
  EXPECT_FALSE(ParseTransformation("Substr(0,1)", &interner).ok());  // no <>
  EXPECT_FALSE(ParseTransformation("<Substr(0,1)", &interner).ok());
  EXPECT_FALSE(ParseTransformation("<Substr(0,1),>", &interner).ok());
  EXPECT_FALSE(ParseTransformation("<Substr(0,1)> x", &interner).ok());
}

TEST(TransformationSet, SerializeParseRoundTrip) {
  // Learn real rules, serialize, parse back, and verify behaviour.
  const std::vector<ExamplePair> rows = {
      {"prus-czarnecki, andrzej", "a prus-czarnecki"},
      {"bowling, michael", "m bowling"},
      {"gosgnach, simon", "s gosgnach"},
  };
  const DiscoveryResult result =
      DiscoverTransformations(rows, DiscoveryOptions());
  std::vector<TransformationId> ids;
  for (const auto& ranked : result.cover.selected) ids.push_back(ranked.id);

  const std::string text =
      SerializeTransformations(result.store, result.units, ids);
  const auto parsed = ParseTransformationSet(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ids.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const Transformation& original = result.store.Get(ids[i]);
    const Transformation& reloaded = parsed->store.Get(parsed->ids[i]);
    for (const auto& row : rows) {
      EXPECT_EQ(original.Apply(row.source, result.units),
                reloaded.Apply(row.source, parsed->units));
    }
  }
}

TEST(TransformationSet, SkipsCommentsAndBlankLines) {
  const auto parsed = ParseTransformationSet(
      "# header\n\n<Split(',',0)>\n   \n# tail comment\n<Substr(0,2)>\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ids.size(), 2u);
}

TEST(TransformationSet, RepeatedRuleKeepsItsFirstLine) {
  // Spacing differs, the parsed rule does not; the repeat is dropped and
  // the rules after it keep file order.
  const auto parsed = ParseTransformationSet(
      "<Split(',',0)>\n<Substr(0,2)>\n< Split(',', 0) >\n<Literal('x')>\n"
      "<Substr(0,2)>\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ids, (std::vector<TransformationId>{0, 1, 2}));
  ASSERT_EQ(parsed->store.size(), 3u);
  EXPECT_EQ(parsed->store.Get(0).ToString(parsed->units), "<Split(',',0)>");
  EXPECT_EQ(parsed->store.Get(1).ToString(parsed->units), "<Substr(0,2)>");
  EXPECT_EQ(parsed->store.Get(2).ToString(parsed->units), "<Literal('x')>");
}

TEST(TransformationSet, ReportsLineNumberOnError) {
  const auto parsed =
      ParseTransformationSet("<Split(',',0)>\n<Bogus(1)>\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST(TransformationSet, MalformedHexEscapeIsAnError) {
  for (const char* line : {"<Literal('\\xZZ')>", "<Literal('\\x4Z')>",
                           "<Literal('\\x4')>"}) {
    const auto parsed =
        ParseTransformationSet(std::string("<Split(',',0)>\n") + line + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
  }
}

TEST(TransformationSet, FileRoundTrip) {
  UnitInterner units;
  TransformationStore store;
  std::vector<TransformationId> ids;
  ids.push_back(
      store.Append(std::vector<UnitId>{units.Intern(Unit::MakeSplit('|', 1))}));
  const std::string path = ::testing::TempDir() + "/rules.tj";
  ASSERT_TRUE(SaveTransformationsToFile(path, store, units, ids).ok());
  const auto loaded = LoadTransformationsFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->ids.size(), 1u);
  EXPECT_EQ(loaded->store.Get(loaded->ids[0])
                .Apply("a|b", loaded->units),
            std::optional<std::string>("b"));
}

TEST(TransformationSet, MissingFileIsIOError) {
  const auto loaded = LoadTransformationsFromFile("/no/such/file.tj");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace tj
