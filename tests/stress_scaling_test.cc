// Long-running stress suite (ctest label: slow) — the delta kernels at the
// scale the ISSUE-2 acceptance bar names: a 50,000-point world with 8
// sensitive attributes (6 categorical, cardinalities 2..7, + 2 numeric).
//
// The incremental fast path is validated two ways:
//   * objective accounting: the sum of every accepted move's DeltaKMeans /
//     DeltaFairness, accumulated over a full randomized sweep, must agree
//     with from-scratch recomputation of both terms to 1e-6 (relative);
//   * optimizer end state: a mini-batch FairKM session's reported terms
//     must agree with scratch evaluation of its final assignment.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fairkm.h"
#include "core/fairkm_state.h"
#include "core/objective.h"
#include "test_util.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace testutil {
namespace {

constexpr double kTol = 1e-6;

WorldSpec StressSpec() {
  WorldSpec spec;
  spec.blobs = 10;
  spec.per_blob = 5000;  // 50k points.
  spec.dim = 8;
  spec.k = 8;
  spec.categorical_attrs = 6;  // cardinalities 2..7
  spec.numeric_attrs = 2;
  return spec;
}

double Rel(double got, double want) {
  return std::fabs(got - want) / std::max(1.0, std::fabs(want));
}

TEST(StressScaling, DeltaAccountingMatchesScratchAt50kPoints) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/1001, StressSpec());
  auto state_or = core::FairKMState::Create(&world.points, &world.sensitive,
                                            world.k, world.assignment);
  ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
  core::FairKMState state = state_or.MoveValueUnsafe();

  const core::ObjectiveValue initial = core::ComputeObjective(
      world.points, world.sensitive, world.assignment, world.k);

  // One randomized greedy sweep over all 50k points: evaluate every candidate
  // with the batched kernel + O(1) fairness closed form, take the best
  // improving move, and keep running per-term delta totals.
  Rng rng(1002);
  std::vector<double> km(static_cast<size_t>(world.k));
  std::vector<double> fair(static_cast<size_t>(world.k));
  double km_acc = 0.0, fair_acc = 0.0;
  size_t moves = 0;
  for (size_t i = 0; i < world.points.rows(); ++i) {
    state.DeltaKMeansAllClusters(i, km.data());
    state.DeltaFairnessAllClusters(i, fair.data());
    const int from = state.cluster_of(i);
    double best = -1e-12;
    int best_cluster = from;
    for (int c = 0; c < world.k; ++c) {
      if (c == from) continue;
      const double delta =
          km[static_cast<size_t>(c)] + fair[static_cast<size_t>(c)];
      if (delta < best) {
        best = delta;
        best_cluster = c;
      }
    }
    if (best_cluster != from) {
      km_acc += km[static_cast<size_t>(best_cluster)];
      fair_acc += fair[static_cast<size_t>(best_cluster)];
      state.Move(i, best_cluster);
      ++moves;
    }
  }
  ASSERT_GT(moves, 1000u) << "stress sweep did not exercise the kernels";

  const core::ObjectiveValue final_scratch = core::ComputeObjective(
      world.points, world.sensitive, state.assignment(), world.k);
  EXPECT_LT(Rel(initial.kmeans_term + km_acc, final_scratch.kmeans_term), kTol)
      << "accumulated K-Means deltas drifted off the scratch objective";
  EXPECT_LT(Rel(initial.fairness_term + fair_acc, final_scratch.fairness_term),
            kTol)
      << "accumulated fairness deltas drifted off the scratch objective";
}

TEST(StressScaling, SampledKernelsMatchReferenceAt50kPoints) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/2001, StressSpec());
  auto state_or = core::FairKMState::Create(&world.points, &world.sensitive,
                                            world.k, world.assignment);
  ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
  core::FairKMState state = state_or.MoveValueUnsafe();

  Rng rng(2002);
  std::vector<double> km(static_cast<size_t>(world.k));
  std::vector<double> fair(static_cast<size_t>(world.k));
  for (int sample = 0; sample < 500; ++sample) {
    const size_t i = static_cast<size_t>(rng.UniformInt(world.points.rows()));
    state.DeltaKMeansAllClusters(i, km.data());
    state.DeltaFairnessAllClusters(i, fair.data());
    for (int c = 0; c < world.k; ++c) {
      const double km_ref = state.ReferenceDeltaKMeans(i, c);
      const double fair_ref = state.ReferenceDeltaFairness(i, c);
      ASSERT_LT(Rel(km[static_cast<size_t>(c)], km_ref), kTol)
          << "point " << i << " -> " << c;
      ASSERT_LT(Rel(fair[static_cast<size_t>(c)], fair_ref), kTol)
          << "point " << i << " -> " << c;
    }
    state.Move(i, static_cast<int>(rng.UniformInt(static_cast<uint64_t>(world.k))));
  }
}

TEST(StressScaling, OptimizerTermsMatchScratchAt50kPoints) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/3001, StressSpec());

  core::FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 3;
  options.minibatch_size = 4096;
  Rng rng(3002);
  auto result_or =
      RunFairKMSession(world.points, world.sensitive, options, &rng);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  const core::FairKMResult got = result_or.MoveValueUnsafe();
  ASSERT_EQ(got.objective_history.size(), static_cast<size_t>(got.iterations));

  // The optimizer's reported terms must match scratch evaluation of its
  // final assignment — the fast path and the "naive" objective agree.
  const core::ObjectiveValue scratch = core::ComputeObjective(
      world.points, world.sensitive, got.assignment, world.k);
  EXPECT_LT(Rel(got.kmeans_term, scratch.kmeans_term), kTol);
  EXPECT_LT(Rel(got.fairness_term, scratch.fairness_term), kTol);
}

}  // namespace
}  // namespace testutil
}  // namespace fairkm
