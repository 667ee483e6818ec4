#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

}  // namespace
}  // namespace fairkm
