#include "serve/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/backoff.h"

namespace fairkm {
namespace serve {

bool IsRetryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

double BackoffCeilingSeconds(const RetryPolicy& policy, int retry) {
  return ExponentialBackoffCeiling(policy.initial_backoff_seconds,
                                   policy.backoff_multiplier,
                                   policy.max_backoff_seconds, retry);
}

Result<cluster::Assignment> AssignWithRetry(
    AssignService& service, const data::Matrix& points,
    const data::SensitiveView* sensitive, const AssignRequestOptions& request,
    const RetryPolicy& policy, Rng* rng) {
  const int attempts = std::max(policy.max_attempts, 1);
  Result<cluster::Assignment> result =
      Status::Internal("AssignWithRetry made no attempt");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    result = service.Assign(points, sensitive, request);
    if (result.ok() || !IsRetryable(result.status())) return result;
    if (attempt == attempts) break;
    const double ceiling = BackoffCeilingSeconds(policy, attempt);
    const double sleep_seconds =
        rng != nullptr ? rng->UniformDouble() * ceiling : ceiling;
    if (sleep_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
    }
  }
  return result;
}

}  // namespace serve
}  // namespace fairkm
