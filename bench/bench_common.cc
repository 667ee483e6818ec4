#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/args.h"
#include "common/thread_pool.h"
#include "core/solver.h"

namespace fairkm {
namespace bench {

BenchEnv LoadBenchEnv() {
  BenchEnv env;
  env.fast = EnvInt("FAIRKM_BENCH_FAST", 0) != 0;
  env.seeds = static_cast<size_t>(EnvInt("FAIRKM_BENCH_SEEDS", env.fast ? 2 : 5));
  env.adult_rows = static_cast<size_t>(
      EnvInt("FAIRKM_BENCH_ADULT_ROWS", env.fast ? 2000 : 0));
  env.threads = static_cast<size_t>(
      EnvInt("FAIRKM_BENCH_THREADS",
             static_cast<int64_t>(ThreadPool::DefaultThreadCount())));
  env.seeds = std::max<size_t>(1, env.seeds);
  return env;
}

const exp::ExperimentData& AdultData(const BenchEnv& env) {
  static std::unique_ptr<exp::ExperimentData> cached;
  static size_t cached_rows = static_cast<size_t>(-1);
  if (!cached || cached_rows != env.adult_rows) {
    exp::AdultExperimentOptions options;
    options.subsample = env.adult_rows;
    cached = std::make_unique<exp::ExperimentData>(
        exp::LoadAdultExperiment(options).ValueOrDie());
    cached_rows = env.adult_rows;
  }
  return *cached;
}

const exp::ExperimentData& KinematicsData() {
  static std::unique_ptr<exp::ExperimentData> cached;
  if (!cached) {
    cached = std::make_unique<exp::ExperimentData>(
        exp::LoadKinematicsExperiment().ValueOrDie());
  }
  return *cached;
}

void PrintBanner(const std::string& title, const BenchEnv& env) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("seeds per configuration: %zu%s | adult rows: %s | threads: %zu\n",
              env.seeds, env.fast ? " (FAST mode)" : "",
              env.adult_rows == 0 ? "15682 (full)"
                                  : std::to_string(env.adult_rows).c_str(),
              env.threads);
  std::printf("(paper protocol: 100 seeds; set FAIRKM_BENCH_SEEDS=100 to match)\n");
  std::printf("==================================================================\n");
}

double ImprovementPercent(double fairkm, double baseline_a, double baseline_b) {
  const double best = std::min(baseline_a, baseline_b);
  if (best == 0.0) return 0.0;
  return 100.0 * (best - fairkm) / best;
}

Result<core::FairKMResult> RunSession(const data::Matrix& points,
                                      const data::SensitiveView& sensitive,
                                      const core::FairKMOptions& options,
                                      Rng* rng) {
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMSolver solver,
      core::FairKMSolver::Create(&points, &sensitive, options));
  FAIRKM_RETURN_NOT_OK(solver.Init(rng));
  FAIRKM_ASSIGN_OR_RETURN(core::RunStop stop, solver.Run());
  (void)stop;
  return solver.CurrentResult();
}

}  // namespace bench
}  // namespace fairkm
