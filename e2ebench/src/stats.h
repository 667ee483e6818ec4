// Sample summaries for the benchmark's timings: the median and the highest
// percentile the sample supports, i.e. the highest one with at least ten
// samples beyond it (a p99 read from 50 samples is just the maximum).
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace e2ebench {

/// \brief One order statistic of a sample.
struct Percentile {
  double q = 0.0;       ///< Percentile in (0, 100), e.g. 99.
  double value = 0.0;   ///< Nearest-rank value; 0 for an empty sample.
  size_t samples = 0;   ///< Sample size the value was read from.
  size_t beyond = 0;    ///< Samples strictly above the value's rank.
};

/// \brief Samples above the nearest-rank position of percentile `q` in a
/// sample of `n`: n - ceil(q/100 * n).
size_t SamplesBeyond(double q, size_t n);

/// \brief Nearest-rank percentile `q` of `values` (copied, then sorted).
Percentile PercentileOf(std::vector<double> values, double q);

/// \brief The highest of p99.9, p99, p95, p90 and p75, not above `max_q`,
/// that has at least `min_beyond` samples beyond it. When none qualifies
/// the median is returned (q = 50), so the caller always gets a value with
/// its count. Capping at a fixed `max_q` keeps a metric's meaning fixed
/// when a faster build collects more samples.
Percentile TailPercentile(const std::vector<double>& values,
                          double max_q = 99.0, size_t min_beyond = 10);

/// \brief Median (mean of the two middle values for an even count); 0 for
/// an empty sample.
double Median(std::vector<double> values);

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
