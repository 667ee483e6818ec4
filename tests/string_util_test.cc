#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "testlib/csv_oracle.h"

namespace fairkm {
namespace {

TEST(SplitTest, Basics) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(TrimTest, Basics) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nhi\r "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ToLowerTest, Basics) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 4), "3.1416");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(PadTest, LeftAndRight) {
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("abcdef", 3), "abcdef");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(ParseDoubleTest, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_TRUE(ParseDouble("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

// strtod reports ERANGE on underflow as well as overflow; a subnormal is a
// valid finite double and must parse, while an overflowing literal must not.
TEST(ParseDoubleTest, SubnormalParsesOverflowFails) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1e-310", &v));
  EXPECT_EQ(std::fpclassify(v), FP_SUBNORMAL);
  EXPECT_EQ(v, 1e-310);
  EXPECT_TRUE(ParseDouble("-4.9e-324", &v));
  EXPECT_EQ(v, -std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(ParseDouble("1e400", &v));
  EXPECT_FALSE(ParseDouble("-1e400", &v));
}

TEST(ParseDoubleTest, InvalidInputs) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("   ", &v));
}

TEST(ParseInt64Test, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
}

TEST(ParseInt64Test, InvalidInputs) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("3.5", &v));
  EXPECT_FALSE(ParseInt64("12a", &v));
}

// -- ParseDouble differential test -------------------------------------------

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectSameAsOracle(const std::string& cell) {
  double want = 0, got = 0;
  const bool want_ok = testutil::OracleParseDouble(cell, &want);
  const bool got_ok = ParseDouble(cell, &got);
  ASSERT_EQ(got_ok, want_ok) << "cell '" << cell << "'";
  if (want_ok) {
    EXPECT_EQ(Bits(got), Bits(want)) << "cell '" << cell << "'";
  }
}

TEST(ParseDoubleDifferentialTest, FixedCasesMatchStrtod) {
  for (const char* cell :
       {"4.9e-324", "-4.9e-324", "2.4703282292062327e-324", "2.5e-324",
        "1e-310", "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1e-400", "-1e-400", "1e400", "-1e400", "1.7976931348623157e308",
        "1.7976931348623159e308", "+1.5", "0x10", "0x1p3", "-0x1.8p1", " 1 ",
        "\t2.5\n", "1e", "1e+", "1e-", "e5", ".", "-", "+", "inf", "-inf",
        "INF", "infinity", "nan", "-nan", "NaN", "nan(123)", "-0", "0", "-0.0",
        ".5", "-.5", "1.", "1.e3", "00012", "1_000", "1,5", "1.5.2",
        "9007199254740993", "0.1", "123456789012345678901234567890",
        "0.30000000000000004", "1e23", "8.98846567431158e307"}) {
    ExpectSameAsOracle(cell);
  }
}

TEST(ParseDoubleDifferentialTest, RandomBitPatternsMatchStrtod) {
  Rng rng(0xD0B1E);
  char buf[512];
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const uint64_t bits = rng.Next();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    // Scale a third of the draws into the range the CSV bench writes.
    if (iter % 3 == 0 && std::isfinite(v)) {
      int exponent = 0;
      v = std::ldexp(std::frexp(v, &exponent), 7);
    }
    for (const char* format : {"%.17g", "%.6f", "%e", "%.25g", "%a"}) {
      std::snprintf(buf, sizeof(buf), format, v);
      ExpectSameAsOracle(buf);
      if (HasFatalFailure()) return;
      double parsed = 0;
      if (ParseDouble(buf, &parsed)) ++accepted;
    }
  }
  EXPECT_GT(accepted, 80000);
}

TEST(ParseDoubleDifferentialTest, LongDigitStringsMatchStrtod) {
  Rng rng(0x5EED5);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string cell = rng.UniformInt(2) == 0 ? "" : "-";
    const uint64_t digits = 1 + rng.UniformInt(40);
    const uint64_t point = rng.UniformInt(digits + 1);
    for (uint64_t d = 0; d < digits; ++d) {
      if (d == point) cell += '.';
      cell += static_cast<char>('0' + rng.UniformInt(10));
    }
    if (rng.UniformInt(2) == 0) {
      cell += 'e' + std::to_string(static_cast<int64_t>(rng.UniformInt(700)) - 350);
    }
    ExpectSameAsOracle(cell);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace fairkm
