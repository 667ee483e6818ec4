#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "testlib/brute_force.h"

namespace fairkm {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats rs;
  rs.Add(5.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(v);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance of the classic sequence: population var is 4, sample
  // variance is 32/7.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(5);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(3.0, 2.0);
    whole.Add(v);
    (i < 400 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, b;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(b);  // No-op.
  EXPECT_EQ(a.count(), 2u);
  b.Merge(a);  // Copies.
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffsets) {
  RunningStats rs;
  // Welford should handle values with a huge common offset.
  for (int i = 0; i < 1000; ++i) rs.Add(1e9 + (i % 2));
  EXPECT_NEAR(rs.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(rs.variance(), 0.25025, 1e-3);
}

TEST(MeanTest, Basics) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StdDevTest, Basics) {
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
  EXPECT_NEAR(StdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(KahanSumTest, CompensatesSmallTerms) {
  std::vector<double> values;
  values.push_back(1.0);
  for (int i = 0; i < 1000000; ++i) values.push_back(1e-16);
  // Naive summation would lose the tail entirely.
  EXPECT_NEAR(KahanSum(values), 1.0 + 1e-10, 1e-12);
}

double SumOf(const std::vector<double>& values) {
  ExactSum sum;
  for (const double v : values) sum.Add(v);
  return sum.Round();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A finite double with a random sign, significand and exponent in
// [2^lo_exp, 2^hi_exp), subnormals included when lo_exp < -1022.
double RandomDouble(Rng* rng, int lo_exp, int hi_exp) {
  const double significand = rng->UniformDouble(1.0, 2.0);
  const int exponent =
      static_cast<int>(rng->UniformInt(int64_t{lo_exp}, int64_t{hi_exp - 1}));
  const double v = std::ldexp(significand, exponent);
  return rng->Bernoulli(0.5) ? -v : v;
}

TEST(ExactSumTest, BruteForceReferenceKnownAnswers) {
  using testutil::BruteForceExactSum;
  EXPECT_EQ(BruteForceExactSum({}), 0.0);
  EXPECT_EQ(BruteForceExactSum({1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(BruteForceExactSum({0.5, 0.25}), 0.75);
  EXPECT_EQ(BruteForceExactSum({-3.0, 1.0}), -2.0);
  // 2^53 + 1 is a tie: even significand 2^53 wins; 2^53 + 3 rounds up.
  EXPECT_EQ(BruteForceExactSum({0x1p53, 1.0}), 0x1p53);
  EXPECT_EQ(BruteForceExactSum({0x1p53, 3.0}), 0x1p53 + 4.0);
  EXPECT_EQ(BruteForceExactSum({0x1p53, 1.0, 0x1p-30}), 0x1p53 + 2.0);
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(BruteForceExactSum({tiny, tiny, tiny}), 3 * tiny);
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(BruteForceExactSum({big, big, -big}), big);
  EXPECT_EQ(BruteForceExactSum({big, big}),
            std::numeric_limits<double>::infinity());
}

TEST(ExactSumTest, CancellationIsExact) {
  EXPECT_EQ(SumOf({1e16, 1.0, -1e16}), 1.0);
  EXPECT_EQ(SumOf({1e16, 1.0, -1e16, 0.1}), 1.1);
  EXPECT_EQ(SumOf({0.1, 0.2, 0.3, -0.6}),
            testutil::BruteForceExactSum({0.1, 0.2, 0.3, -0.6}));
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(SumOf({big, big, -big}), big);
  EXPECT_EQ(SumOf({big, big}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(SumOf({-big, -big}), -std::numeric_limits<double>::infinity());
  // An exact zero is +0.0, whatever the signs that cancelled.
  EXPECT_TRUE(SameBits(SumOf({-0.0}), 0.0));
  EXPECT_TRUE(SameBits(SumOf({-2.5, 2.5}), 0.0));
  EXPECT_TRUE(SameBits(SumOf({}), 0.0));
}

TEST(ExactSumTest, RoundsHalfToEven) {
  EXPECT_EQ(SumOf({0x1p53, 1.0}), 0x1p53);
  EXPECT_EQ(SumOf({0x1p53, 3.0}), 0x1p53 + 4.0);
  EXPECT_EQ(SumOf({0x1p53, 1.0, 0x1p-30}), 0x1p53 + 2.0);
  EXPECT_EQ(SumOf({-0x1p53, -1.0, -0x1p-1074}), -0x1p53 - 2.0);
  // Rounding up carries into the next binade.
  EXPECT_EQ(SumOf({0x1p54 - 2.0, 1.0}), 0x1p54);
}

TEST(ExactSumTest, SubnormalsAreExact) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double smallest_normal = std::numeric_limits<double>::min();
  EXPECT_EQ(SumOf({tiny, tiny, tiny}), 3 * tiny);
  EXPECT_EQ(SumOf({smallest_normal, -tiny}), smallest_normal - tiny);
  EXPECT_EQ(SumOf({smallest_normal, -smallest_normal, tiny}), tiny);
  EXPECT_EQ(SumOf({1.0, tiny, -1.0}), tiny);
  Rng rng(9);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(RandomDouble(&rng, -1074, -1010));
  }
  EXPECT_TRUE(SameBits(SumOf(values), testutil::BruteForceExactSum(values)));
}

TEST(ExactSumTest, NonFiniteInputPoisonsTheSum) {
  ExactSum sum;
  sum.Add(1.0);
  sum.Add(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(sum.Round()));
  sum.Subtract(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(sum.Round()));
  ExactSum nan_sum;
  nan_sum.Subtract(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(nan_sum.Round()));
}

// Add everything, subtract a random subset, in shuffled orders: the result
// matches the brute-force reference over the survivors to the bit, and so
// does every other order of the same calls.
TEST(ExactSumTest, ShuffledAddSubtractMatchesBruteForce) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Alternate narrow-range and full-range magnitudes.
    const int lo = trial % 2 == 0 ? -60 : -1074;
    const int hi = trial % 2 == 0 ? 60 : 1000;
    std::vector<double> values(1 + rng.UniformInt(uint64_t{300}));
    for (double& v : values) v = RandomDouble(&rng, lo, hi);
    std::vector<uint8_t> keep(values.size());
    std::vector<double> survivors;
    for (size_t i = 0; i < values.size(); ++i) {
      keep[i] = rng.Bernoulli(0.6) ? 1 : 0;
      if (keep[i] != 0) survivors.push_back(values[i]);
    }
    const double expected = testutil::BruteForceExactSum(survivors);

    for (int order = 0; order < 3; ++order) {
      std::vector<size_t> adds(values.size());
      for (size_t i = 0; i < adds.size(); ++i) adds[i] = i;
      rng.Shuffle(&adds);
      ExactSum sum;
      // Interleave: a retired value may be subtracted as soon as it is in.
      std::vector<size_t> pending;
      for (const size_t i : adds) {
        sum.Add(values[i]);
        if (keep[i] == 0) pending.push_back(i);
        if (!pending.empty() && rng.Bernoulli(0.5)) {
          sum.Subtract(values[pending.back()]);
          pending.pop_back();
        }
      }
      for (const size_t i : pending) sum.Subtract(values[i]);
      EXPECT_TRUE(SameBits(sum.Round(), expected))
          << "trial " << trial << " order " << order << ": " << sum.Round()
          << " vs " << expected;
    }
    std::vector<double> shuffled = survivors;
    rng.Shuffle(&shuffled);
    EXPECT_TRUE(SameBits(testutil::BruteForceExactSum(shuffled), expected));
  }
}

TEST(AlmostEqualTest, AbsoluteAndRelative) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0));
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 5e-10));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 * (1 + 1e-10)));
  EXPECT_FALSE(AlmostEqual(1e12, 1e12 + 1e6));
}

}  // namespace
}  // namespace fairkm
