#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

namespace {

// Nearest-rank position (1-based) of percentile q in a sample of n.
size_t Rank(double q, size_t n) {
  const double exact = q / 100.0 * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::min(std::max<size_t>(rank, 1), n);
}

}  // namespace

size_t SamplesBeyond(double q, size_t n) {
  return n == 0 ? 0 : n - Rank(q, n);
}

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile out;
  out.q = q;
  out.samples = values.size();
  if (values.empty()) return out;
  const size_t rank = Rank(q, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

Percentile TailPercentile(const std::vector<double>& values, double max_q,
                          size_t min_beyond) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (q <= max_q && SamplesBeyond(q, values.size()) >= min_beyond) {
      return PercentileOf(values, q);
    }
  }
  return PercentileOf(values, 50.0);
}

double Median(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) return 0.0;
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace e2ebench
