// Naive reference implementation of FairKM.
//
// Identical search procedure to core::FairKMSolver, but every candidate move
// is evaluated by recomputing the full objective (Eq. 1) from scratch —
// O(n d + sum_S m_S) per candidate instead of O(d + sum_S m_S) deltas. This
// exists purely as ground truth: property tests check that the fast
// incremental optimizer makes the same decisions and reaches the same
// objective, and bench_scaling quantifies the speedup (paper §4.2 motivates
// the incremental update equations with exactly this contrast).

#ifndef FAIRKM_CORE_FAIRKM_NAIVE_H_
#define FAIRKM_CORE_FAIRKM_NAIVE_H_

#include "common/rng.h"
#include "core/fairkm.h"

namespace fairkm {
namespace core {

/// \brief Runs FairKM with brute-force objective evaluation. Only suitable
/// for small inputs (cost is quadratic in n per sweep). Mini-batch mode is
/// not supported (returns InvalidArgument).
Result<FairKMResult> RunFairKMNaive(const data::Matrix& points,
                                    const data::SensitiveView& sensitive,
                                    const FairKMOptions& options, Rng* rng);

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_FAIRKM_NAIVE_H_
