#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace fairkm {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return KahanSum(values) / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  RunningStats rs;
  for (double v : values) rs.Add(v);
  return rs.stddev();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

double KahanSum(const std::vector<double>& values) {
  double sum = 0.0, comp = 0.0;
  for (double v : values) {
    double y = v - comp;
    double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum;
}

void ExactSum::Deposit(double x, bool negate) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF);
  uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  if (exponent == 0x7FF) {
    non_finite_ = true;
    return;
  }
  // |x| = mantissa * 2^(lowest - 1074): a subnormal's lowest mantissa bit is
  // bit 0, a normal's sits at exponent - 1 under its implicit leading one.
  int lowest = 0;
  if (exponent != 0) {
    mantissa |= uint64_t{1} << 52;
    lowest = exponent - 1;
  }
  const size_t limb = static_cast<size_t>(lowest / kDigitBits);
  const int shift = lowest % kDigitBits;
  const uint64_t digit_mask = (uint64_t{1} << kDigitBits) - 1;
  const uint64_t high = mantissa >> (kDigitBits - shift);
  const int64_t sign = ((bits >> 63) != 0) != negate ? -1 : 1;
  limbs_[limb] += sign * static_cast<int64_t>((mantissa << shift) & digit_mask);
  limbs_[limb + 1] += sign * static_cast<int64_t>(high & digit_mask);
  limbs_[limb + 2] += sign * static_cast<int64_t>(high >> kDigitBits);
  if (++deposits_ == kDepositsPerCarry) Carry();
}

void ExactSum::Carry() {
  // Bring every limb but the last into [0, 2^32); the value is unchanged and
  // its sign is then the sign of the last limb.
  const int64_t digit_mask = (int64_t{1} << kDigitBits) - 1;
  for (size_t i = 0; i + 1 < kLimbs; ++i) {
    const int64_t digit = limbs_[i] & digit_mask;
    limbs_[i + 1] += (limbs_[i] - digit) / (int64_t{1} << kDigitBits);
    limbs_[i] = digit;
  }
  deposits_ = 0;
}

double ExactSum::Round() const {
  if (non_finite_) return std::numeric_limits<double>::quiet_NaN();
  ExactSum t = *this;
  t.Carry();
  const bool negative = t.limbs_[kLimbs - 1] < 0;
  if (negative) {
    for (int64_t& limb : t.limbs_) limb = -limb;
    t.Carry();
  }
  // The magnitude as base-2^32 digits; the last limb may exceed one digit.
  std::array<uint64_t, kLimbs + 1> digits{};
  for (size_t i = 0; i + 1 < kLimbs; ++i) {
    digits[i] = static_cast<uint64_t>(t.limbs_[i]);
  }
  const uint64_t top = static_cast<uint64_t>(t.limbs_[kLimbs - 1]);
  digits[kLimbs - 1] = top & ((uint64_t{1} << kDigitBits) - 1);
  digits[kLimbs] = top >> kDigitBits;
  size_t h = digits.size();
  while (h > 0 && digits[h - 1] == 0) --h;
  if (h == 0) return 0.0;
  const auto bit = [&digits](int i) {
    return (digits[static_cast<size_t>(i / kDigitBits)] >> (i % kDigitBits)) &
           1;
  };
  int msb = static_cast<int>(h - 1) * kDigitBits + kDigitBits - 1;
  while (bit(msb) == 0) --msb;
  double magnitude;
  if (msb <= 52) {
    // Fits a double's 53-bit significand: exact, possibly subnormal.
    magnitude = std::ldexp(
        static_cast<double>(digits[0] | (digits[1] << kDigitBits)), -1074);
  } else {
    // Keep the top 53 bits, round half to even on the rest.
    uint64_t significand = 0;
    for (int i = msb; i > msb - 53; --i) {
      significand = significand << 1 | bit(i);
    }
    const int round_bit = msb - 53;
    bool sticky = (digits[static_cast<size_t>(round_bit / kDigitBits)] &
                   ((uint64_t{1} << (round_bit % kDigitBits)) - 1)) != 0;
    for (int i = 0; !sticky && i < round_bit / kDigitBits; ++i) {
      sticky = digits[static_cast<size_t>(i)] != 0;
    }
    if (bit(round_bit) != 0 && (sticky || (significand & 1) != 0)) {
      ++significand;  // 2^53 is still exact; ldexp then carries the exponent.
    }
    magnitude =
        std::ldexp(static_cast<double>(significand), round_bit + 1 - 1074);
  }
  return negative ? -magnitude : magnitude;
}

bool AlmostEqual(double a, double b, double abs_tol, double rel_tol) {
  double diff = std::fabs(a - b);
  double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= abs_tol + rel_tol * scale;
}

}  // namespace fairkm
