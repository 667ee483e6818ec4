// Exponential backoff ceiling shared by every retry loop in the library
// (serve::RetryPolicy clients, core::SupervisedRunner recoveries): the
// "full jitter" schedule sleeps ~ U[0, ceiling] before retry i, with
//   ceiling = min(initial * multiplier^(i-1), max).

#ifndef FAIRKM_COMMON_BACKOFF_H_
#define FAIRKM_COMMON_BACKOFF_H_

#include <algorithm>

namespace fairkm {

/// \brief Backoff ceiling in seconds before retry number `retry` (1-based),
/// clamped to [0, max_seconds]. The multiplication stops once the ceiling
/// reaches the cap, so large retry counts never overflow.
inline double ExponentialBackoffCeiling(double initial_seconds,
                                        double multiplier, double max_seconds,
                                        int retry) {
  double ceiling = initial_seconds;
  for (int i = 1; i < retry; ++i) {
    ceiling *= multiplier;
    if (ceiling >= max_seconds) break;
  }
  return std::clamp(ceiling, 0.0, max_seconds);
}

}  // namespace fairkm

#endif  // FAIRKM_COMMON_BACKOFF_H_
