// Tests for the common runtime: Status/Result, hashing, strings.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

TEST(FnvPin, InlineGramRecurrenceEqualsHashString) {
  // ComputeColumnSignature inlines FNV-1a + Mix64 over the arena bytes
  // instead of calling HashString per gram; the two must agree for every
  // window so sketches are unchanged by the inlining.
  const std::string text = "Fnv pin: The quick brown fox 0123456789!";
  for (size_t gram = 1; gram <= 8; ++gram) {
    for (size_t i = 0; i + gram <= text.size(); ++i) {
      uint64_t h = kFnvOffsetBasis;
      for (size_t j = 0; j < gram; ++j) {
        h ^= static_cast<unsigned char>(text[i + j]);
        h *= kFnvPrime;
      }
      EXPECT_EQ(Mix64(h), HashString(text.substr(i, gram)))
          << "gram " << gram << " at " << i;
    }
  }
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

// The lowercase helpers are plain per-byte loops that GCC vectorizes at -O3
// (SSE2 on x86-64). Both tests run twice: here against the library's
// vectorized loops, and under the /force_scalar suffix against a copy of
// common/strings.cc compiled without vectorization.
TEST(StringsLowercase, SimdBackedHelpersMatchCharDefinition) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  std::string expect;
  for (char c : all) expect.push_back(ToLowerAsciiChar(c));
  EXPECT_EQ(ToLowerAscii(all), expect);
  std::string in_place = all;
  ToLowerAsciiInPlace(&in_place);
  EXPECT_EQ(in_place, expect);
  std::string appended = "prefix-";
  AppendLowerAscii(all, &appended);
  EXPECT_EQ(appended, "prefix-" + expect);
}

TEST(SimdKernels, LowerAsciiMatchesScalarTwin) {
  // The scalar twin is ToLowerAsciiChar, one byte at a time. Lengths
  // 0..130 at offsets 0..7 cross every body/tail split of the vectorized
  // loop. The bytes cover all 256 values at every phase (251 is coprime to
  // 256, so consecutive windows differ).
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 130; ++len) {
      std::string src(offset + len, '\0');
      for (size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<char>((len * 3 + 1 + i * 251) & 0xff);
      }
      std::string want = src.substr(0, offset);
      for (size_t i = offset; i < src.size(); ++i) {
        want.push_back(ToLowerAsciiChar(src[i]));
      }
      std::string lowered = src;
      ToLowerAsciiInPlace(lowered.data() + offset, len);
      ASSERT_EQ(lowered, want) << "in place, len " << len << " offset "
                               << offset;
      std::string out = src.substr(0, offset);
      AppendLowerAscii(std::string_view(src).substr(offset), &out);
      ASSERT_EQ(out, want) << "appended, len " << len << " offset " << offset;
    }
  }
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
