// Small numerically-careful statistics helpers shared across the library.

#ifndef FAIRKM_COMMON_STATS_H_
#define FAIRKM_COMMON_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fairkm {

/// \brief Streaming mean/variance accumulator (Welford's algorithm).
///
/// Single pass, numerically stable, O(1) memory. Used for aggregating metric
/// values across experiment seeds.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// \brief Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// \brief Pools another accumulator into this one (Chan et al. merge).
  void Merge(const RunningStats& other);

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// \brief Sample standard deviation (n-1); 0 with fewer than two values.
double StdDev(const std::vector<double>& values);

/// \brief Median (averages the middle pair for even sizes); 0 for empty input.
double Median(std::vector<double> values);

/// \brief Kahan-compensated sum.
double KahanSum(const std::vector<double>& values);

/// \brief Exact, order-independent sum of doubles: a fixed-point
/// superaccumulator over the whole double range.
///
/// Every finite double is an integer multiple of 2^-1074, so the exact sum
/// of any multiset of them is too. The accumulator holds that integer in
/// base-2^32 digits kept in int64 limbs (carry-save: a digit may run outside
/// [0, 2^32) until the next carry pass), so Add and Subtract are O(1) and
/// never round. Round() returns the exact sum rounded once to the nearest
/// double, ties to even — the same double for every order of the same Add
/// and Subtract calls, and the same double a from-scratch Add over the
/// surviving values gives after any add/subtract history. An exact zero
/// rounds to +0.0; a sum beyond the double range rounds to +-infinity; once
/// a non-finite value is added or subtracted, Round() returns NaN.
class ExactSum {
 public:
  void Add(double x) { Deposit(x, false); }
  void Subtract(double x) { Deposit(x, true); }
  double Round() const;

 private:
  // 2098 bits span the double range (bit 0 is 2^-1074, a DBL_MAX mantissa
  // tops out at bit 2097); the last limb also absorbs the growth of up to
  // 2^63 terms.
  static constexpr int kDigitBits = 32;
  static constexpr size_t kLimbs = 67;
  // Each deposit moves a limb by less than 2^32, so 2^30 deposits between
  // carry passes keep every int64 limb far from overflow.
  static constexpr uint32_t kDepositsPerCarry = uint32_t{1} << 30;

  void Deposit(double x, bool negate);
  void Carry();

  std::array<int64_t, kLimbs> limbs_{};
  uint32_t deposits_ = 0;
  bool non_finite_ = false;
};

/// \brief True when |a - b| <= abs_tol + rel_tol * max(|a|, |b|).
bool AlmostEqual(double a, double b, double abs_tol = 1e-9, double rel_tol = 1e-9);

}  // namespace fairkm

#endif  // FAIRKM_COMMON_STATS_H_
