// Shared support for the table/figure reproduction benches.
//
// Environment knobs (all benches honour them):
//   FAIRKM_BENCH_SEEDS      seeds per configuration (default 5; paper: 100)
//   FAIRKM_BENCH_ADULT_ROWS Adult rows (default 0 = the full 15,682)
//   FAIRKM_BENCH_FAST       1 = quick smoke settings (2 seeds, 2,000 rows)
//   FAIRKM_BENCH_THREADS    worker threads across seeds (default: hardware)

#ifndef FAIRKM_BENCH_BENCH_COMMON_H_
#define FAIRKM_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "core/fairkm.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "exp/datasets.h"
#include "exp/runner.h"

namespace fairkm {
namespace bench {

/// \brief Resolved bench settings.
struct BenchEnv {
  size_t seeds = 5;
  size_t adult_rows = 0;  ///< 0 = full dataset.
  size_t threads = 4;
  bool fast = false;
};

/// \brief Reads the FAIRKM_BENCH_* environment variables.
BenchEnv LoadBenchEnv();

/// \brief Loads (and caches per process) the Adult experiment data under the
/// env-selected row count.
const exp::ExperimentData& AdultData(const BenchEnv& env);

/// \brief Loads (and caches) the Kinematics experiment data.
const exp::ExperimentData& KinematicsData();

/// \brief Prints the standard bench banner (dataset sizes, seeds, lambdas).
void PrintBanner(const std::string& title, const BenchEnv& env);

/// \brief FairKM improvement over the best baseline, in percent (the paper's
/// "FairKM Impr(%)" column): 100 * (best_baseline - fairkm) / best_baseline.
double ImprovementPercent(double fairkm, double baseline_a, double baseline_b);

/// \brief One blocking FairKM run through the session API: Create + Init +
/// Run + CurrentResult on a fresh core::FairKMSolver.
Result<core::FairKMResult> RunSession(const data::Matrix& points,
                                      const data::SensitiveView& sensitive,
                                      const core::FairKMOptions& options,
                                      Rng* rng);

}  // namespace bench
}  // namespace fairkm

#endif  // FAIRKM_BENCH_BENCH_COMMON_H_
