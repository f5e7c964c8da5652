// Tests for the common runtime: Status/Result, hashing, strings.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/status.h"
#include "common/strings.h"

namespace tj {
namespace {

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad column");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad column");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad column");
}

TEST(Status, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(Result, HoldsValue) {
  const Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  const Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

/// Counts its copies in *copies; moves are not counted.
struct CopyProbe {
  explicit CopyProbe(int* counter) : copies(counter) {}
  CopyProbe(const CopyProbe& other) : copies(other.copies) { ++*copies; }
  CopyProbe(CopyProbe&&) = default;
  CopyProbe& operator=(const CopyProbe&) = delete;
  CopyProbe& operator=(CopyProbe&&) = default;
  int* copies;
};

TEST(Result, DereferencingAnRvalueMovesTheValue) {
  int copies = 0;
  const auto take = [](CopyProbe probe) { return probe.copies; };
  Result<CopyProbe> r = CopyProbe(&copies);
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(take(*std::move(r)), &copies);
  EXPECT_EQ(copies, 0);
  Result<CopyProbe> kept = CopyProbe(&copies);
  take(*kept);  // an lvalue still copies
  EXPECT_EQ(copies, 1);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  TJ_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kInvalidArgument);
}

TEST(Hash, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(123), Mix64(123));
  EXPECT_NE(Mix64(123), Mix64(124));
}

TEST(Hash, HashStringMatchesHashBytes) {
  EXPECT_EQ(HashString("abc"), HashBytes("abc", 3));
  EXPECT_NE(HashString("abc"), HashString("abd"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(Hash, TransparentLookupWorks) {
  std::unordered_map<std::string, int, StringHash, StringEq> m;
  m["hello"] = 7;
  const std::string_view probe = "hello";
  EXPECT_EQ(m.find(probe)->second, 7);
}

TEST(Strings, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("Hello World 42!"), "hello world 42!");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(Strings, TrimAscii) {
  EXPECT_EQ(TrimAscii("  x y  "), "x y");
  EXPECT_EQ(TrimAscii("\t\n"), "");
  EXPECT_EQ(TrimAscii("abc"), "abc");
}

TEST(Strings, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(Strings, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrPrintf("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrPrintf("empty"), "empty");
}

TEST(Strings, EscapeForDisplay) {
  EXPECT_EQ(EscapeForDisplay("a\tb"), "a\\tb");
  EXPECT_EQ(EscapeForDisplay("it's"), "it\\'s");
  EXPECT_EQ(EscapeForDisplay("a\nb"), "a\\nb");
}

TEST(Strings, ContainsHelpers) {
  EXPECT_TRUE(Contains("hello world", "lo wo"));
  EXPECT_FALSE(Contains("hello", "world"));
}

}  // namespace
}  // namespace tj
