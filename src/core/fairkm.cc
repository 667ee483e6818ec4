#include "core/fairkm.h"

#include <cmath>

#include "core/solver.h"

namespace fairkm {
namespace core {

double SuggestLambda(size_t num_rows, int k) {
  FAIRKM_DCHECK(k > 0);
  const double ratio = static_cast<double>(num_rows) / static_cast<double>(k);
  return ratio * ratio;
}

Status FairKMOptions::Validate() const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (minibatch_size < 0) {
    return Status::InvalidArgument("minibatch_size must be >= 0");
  }
  if (std::isnan(lambda) || std::isinf(lambda)) {
    return Status::InvalidArgument(
        "lambda must be finite (negative means auto)");
  }
  if (std::isnan(min_improvement) || min_improvement < 0.0) {
    return Status::InvalidArgument("min_improvement must be >= 0");
  }
  return Status::OK();
}

// Compatibility wrapper: one blocking run of the FairKMSolver session
// (core/solver.h), which owns the Algorithm-1 sweep engine. Equal inputs and
// rng draws yield trajectories bit-identical to the historical in-place
// implementation.
Result<FairKMResult> RunFairKM(const data::Matrix& points,
                               const data::SensitiveView& sensitive,
                               const FairKMOptions& options, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  FAIRKM_ASSIGN_OR_RETURN(FairKMSolver solver,
                          FairKMSolver::Create(&points, &sensitive, options));
  FAIRKM_RETURN_NOT_OK(solver.Init(rng));
  FAIRKM_ASSIGN_OR_RETURN(RunStop stop, solver.Run());
  (void)stop;  // Converged or hit max_iterations; both finalize below.
  return solver.CurrentResult();
}

}  // namespace core
}  // namespace fairkm
