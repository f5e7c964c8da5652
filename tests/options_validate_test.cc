// Status-returning configuration validation: every options struct that
// used to be trusted blindly at configuration time now has a
// ValidateOptions() the CLI and the serving layer call before running.
// Defaults must validate; each individually broken field must come back as
// InvalidArgument naming the field; range checks must reject NaN (written
// as !(x >= lo) so an unordered compare fails closed).

#include <gtest/gtest.h>

#include <limits>

#include "core/options.h"
#include "corpus/corpus_discovery.h"
#include "corpus/pair_pruner.h"
#include "corpus/signature.h"
#include "join/join_engine.h"
#include "match/row_matcher.h"
#include "table/column.h"

namespace tj {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

void ExpectRejected(const Status& status, const char* field) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
  EXPECT_NE(status.message().find(field), std::string::npos)
      << "message should name the field: " << status.ToString();
}

TEST(ValidateOptionsTest, DiscoveryDefaultsAreValid) {
  EXPECT_TRUE(ValidateOptions(DiscoveryOptions()).ok());
}

TEST(ValidateOptionsTest, DiscoveryRejectsEachBadField) {
  {
    DiscoveryOptions o;
    o.max_placeholders = 0;
    ExpectRejected(ValidateOptions(o), "max_placeholders");
  }
  {
    DiscoveryOptions o;
    o.max_placeholders = 17;  // > the 16-column transformation ceiling
    ExpectRejected(ValidateOptions(o), "max_placeholders");
  }
  {
    DiscoveryOptions o;
    o.max_transformations_per_row = 0;
    ExpectRejected(ValidateOptions(o), "max_transformations_per_row");
  }
  {
    DiscoveryOptions o;
    o.max_units_per_placeholder = 0;
    ExpectRejected(ValidateOptions(o), "max_units_per_placeholder");
  }
  {
    DiscoveryOptions o;
    o.min_support_fraction = 1.5;
    ExpectRejected(ValidateOptions(o), "min_support_fraction");
  }
  {
    DiscoveryOptions o;
    o.min_support_fraction = kNaN;
    ExpectRejected(ValidateOptions(o), "min_support_fraction");
  }
}

TEST(ValidateOptionsTest, RowMatchBounds) {
  EXPECT_TRUE(ValidateOptions(RowMatchOptions()).ok());
  RowMatchOptions o;
  o.target_cache_key.fingerprint = 7;  // engaged, but no index_cache
  ExpectRejected(ValidateOptions(o), "index_cache");
}

TEST(ValidateOptionsTest, StorageBudgetNeedsSpillDir) {
  EXPECT_TRUE(ValidateOptions(StorageOptions()).ok());
  StorageOptions spilled;
  spilled.spill_dir = "/tmp";
  spilled.memory_budget_bytes = 1 << 20;
  EXPECT_TRUE(ValidateOptions(spilled).ok());

  StorageOptions budget_no_spill;
  budget_no_spill.memory_budget_bytes = 1 << 20;
  ExpectRejected(ValidateOptions(budget_no_spill), "memory_budget_bytes");
}

TEST(ValidateOptionsTest, PairPrunerContainmentRange) {
  EXPECT_TRUE(ValidateOptions(PairPrunerOptions()).ok());
  for (const double bad : {-0.1, 1.1, kNaN}) {
    PairPrunerOptions o;
    o.min_containment = bad;
    ExpectRejected(ValidateOptions(o), "min_containment");
  }
}

TEST(ValidateOptionsTest, JoinValidatesNestedAndOwnFields) {
  EXPECT_TRUE(ValidateOptions(JoinOptions()).ok());
  for (const double bad : {-0.5, 2.0, kNaN}) {
    JoinOptions o;
    o.min_join_support = bad;
    ExpectRejected(ValidateOptions(o), "min_join_support");
  }
  // Nested structs are validated through the parent.
  {
    JoinOptions o;
    o.match_options.target_cache_key.fingerprint = 7;
    EXPECT_FALSE(ValidateOptions(o).ok());
  }
  {
    JoinOptions o;
    o.discovery.max_placeholders = 0;
    EXPECT_FALSE(ValidateOptions(o).ok());
  }
}

TEST(ValidateOptionsTest, CorpusDiscoveryValidatesNested) {
  EXPECT_TRUE(ValidateOptions(CorpusDiscoveryOptions()).ok());
  {
    CorpusDiscoveryOptions o;
    o.pruner.min_containment = 2.0;
    EXPECT_FALSE(ValidateOptions(o).ok());
  }
  {
    CorpusDiscoveryOptions o;
    o.join.min_join_support = -1.0;
    EXPECT_FALSE(ValidateOptions(o).ok());
  }
}

}  // namespace
}  // namespace tj
