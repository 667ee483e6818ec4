// Long-horizon invariant tests: FairKMState incremental aggregates must match
// from-scratch recomputation after arbitrary Move sequences (the ISSUE-1
// acceptance bar is >= 1000 random moves), and the O(d) move deltas must
// match brute-force before/after objective evaluation throughout.

#include <gtest/gtest.h>

#include <cmath>

#include "core/fairkm_state.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace testutil {
namespace {

core::FairKMState MakeState(const SeededWorld& world,
                            core::FairnessTermConfig config = {}) {
  // ValueOrDie aborts with the status message on error (FairKMState has no
  // default constructor to fall back on).
  return core::FairKMState::Create(&world.points, &world.sensitive, world.k,
                                   world.assignment, config)
      .ValueOrDie();
}

TEST(StateInvariants, AggregatesMatchBruteForceAfterThousandRandomMoves) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/11);
  core::FairKMState state = MakeState(world);
  ASSERT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive));

  Rng rng(12);
  const std::vector<MoveOp> moves =
      RandomMoveSequence(1200, world.points.rows(), world.k, &rng);
  size_t applied = 0;
  for (const MoveOp& move : moves) {
    state.Move(move.point, move.to);
    ++applied;
    // A full brute-force comparison after every single move is O(n d) * 1200;
    // the world is tiny, so check a rolling subsample plus the final state.
    if (applied % 40 == 0) {
      ASSERT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive))
          << "after move " << applied;
    }
  }
  ASSERT_GE(applied, 1000u);
  EXPECT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive));
}

TEST(StateInvariants, DeltasMatchBruteForceAlongRandomTrajectory) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/21);
  core::FairKMState state = MakeState(world);

  Rng rng(22);
  const std::vector<MoveOp> moves =
      RandomMoveSequence(250, world.points.rows(), world.k, &rng);
  for (const MoveOp& move : moves) {
    const double dk = state.DeltaKMeans(move.point, move.to);
    const double df = BatchedDeltaFairness(state, move.point, move.to);
    const double brute_dk =
        BruteForceDeltaKMeans(world.points, state.assignment(), world.k,
                              move.point, move.to);
    const double brute_df =
        BruteForceDeltaFairness(world.sensitive, state.assignment(), world.k,
                                move.point, move.to);
    ASSERT_NEAR(dk, brute_dk, 1e-9 * std::max(1.0, std::fabs(brute_dk)))
        << "point " << move.point << " -> " << move.to;
    ASSERT_NEAR(df, brute_df, 1e-9 * std::max(1.0, std::fabs(brute_df)))
        << "point " << move.point << " -> " << move.to;
    state.Move(move.point, move.to);
  }
}

TEST(StateInvariants, BatchedKernelMatchesSingleCandidateAndReference) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/71);
  core::FairKMState state = MakeState(world);

  // Along a random move trajectory, the batched all-clusters kernel, the
  // single-candidate expanded-form delta and the pre-optimization reference
  // kernel must agree for every candidate cluster.
  Rng rng(72);
  const std::vector<MoveOp> moves =
      RandomMoveSequence(150, world.points.rows(), world.k, &rng);
  std::vector<double> batched(static_cast<size_t>(world.k));
  for (const MoveOp& move : moves) {
    state.DeltaKMeansAllClusters(move.point, batched.data());
    for (int c = 0; c < world.k; ++c) {
      const double single = state.DeltaKMeans(move.point, c);
      const double reference = state.ReferenceDeltaKMeans(move.point, c);
      ASSERT_NEAR(batched[static_cast<size_t>(c)], single,
                  1e-9 * std::max(1.0, std::fabs(single)))
          << "point " << move.point << " -> " << c;
      ASSERT_NEAR(single, reference, 1e-9 * std::max(1.0, std::fabs(reference)))
          << "point " << move.point << " -> " << c;
    }
    state.Move(move.point, move.to);
  }
}

TEST(StateInvariants, ClosedFormFairnessMatchesReferenceKernel) {
  WorldSpec spec;
  spec.random_weights = true;
  for (core::ClusterWeighting weighting :
       {core::ClusterWeighting::kSquaredFraction,
        core::ClusterWeighting::kFractional, core::ClusterWeighting::kUnweighted}) {
    core::FairnessTermConfig config;
    config.weighting = weighting;
    const SeededWorld world = MakeSeededWorld(/*seed=*/81, spec);
    core::FairKMState state = MakeState(world, config);

    Rng rng(82);
    const std::vector<MoveOp> moves =
        RandomMoveSequence(200, world.points.rows(), world.k, &rng);
    std::vector<double> lanes(static_cast<size_t>(world.k));
    for (const MoveOp& move : moves) {
      state.DeltaFairnessAllClusters(move.point, lanes.data());
      for (int c = 0; c < world.k; ++c) {
        const double fast = lanes[static_cast<size_t>(c)];
        const double reference = state.ReferenceDeltaFairness(move.point, c);
        ASSERT_NEAR(fast, reference, 1e-9 * std::max(1.0, std::fabs(reference)))
            << "point " << move.point << " -> " << c;
      }
      state.Move(move.point, move.to);
    }
  }
}

TEST(StateInvariants, BatchedKernelTracksStaleSnapshot) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/91);
  core::FairKMState state = MakeState(world);
  state.EnablePrototypeSnapshot(true);

  // Let the snapshot go stale, then require all three K-Means kernels to
  // agree against it (they must all read the same frozen prototypes).
  Rng rng(92);
  const std::vector<MoveOp> moves =
      RandomMoveSequence(80, world.points.rows(), world.k, &rng);
  std::vector<double> batched(static_cast<size_t>(world.k));
  size_t step = 0;
  for (const MoveOp& move : moves) {
    state.Move(move.point, move.to);
    if (++step % 25 == 0) state.RefreshPrototypes();
    state.DeltaKMeansAllClusters(move.point, batched.data());
    for (int c = 0; c < world.k; ++c) {
      const double reference = state.ReferenceDeltaKMeans(move.point, c);
      ASSERT_NEAR(batched[static_cast<size_t>(c)], reference,
                  1e-9 * std::max(1.0, std::fabs(reference)))
          << "step " << step << " candidate " << c;
      ASSERT_NEAR(state.DeltaKMeans(move.point, c), reference,
                  1e-9 * std::max(1.0, std::fabs(reference)));
    }
  }
}

TEST(StateInvariants, MoveToOwnClusterIsIdentityAndDeltaZero) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/31);
  core::FairKMState state = MakeState(world);
  for (size_t i = 0; i < world.points.rows(); i += 7) {
    const int own = state.cluster_of(i);
    EXPECT_EQ(state.DeltaKMeans(i, own), 0.0);
    EXPECT_EQ(BatchedDeltaFairness(state, i, own), 0.0);
    state.Move(i, own);
  }
  EXPECT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive));
}

TEST(StateInvariants, SurvivesEmptyingAndRefillingClusters) {
  WorldSpec spec;
  spec.blobs = 2;
  spec.per_blob = 8;
  spec.k = 4;
  const SeededWorld world = MakeSeededWorld(/*seed=*/41, spec);
  core::FairKMState state = MakeState(world);

  // Drain everything into cluster 0, then scatter back out; aggregates must
  // stay exact through the empty-cluster regime.
  for (size_t i = 0; i < world.points.rows(); ++i) state.Move(i, 0);
  EXPECT_EQ(state.cluster_size(0), world.points.rows());
  for (int c = 1; c < world.k; ++c) EXPECT_EQ(state.cluster_size(c), 0u);
  EXPECT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive));

  for (size_t i = 0; i < world.points.rows(); ++i) {
    state.Move(i, static_cast<int>(i) % world.k);
  }
  EXPECT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive));
}

TEST(StateInvariants, HoldsForAllClusterWeightingsAndWeights) {
  WorldSpec spec;
  spec.random_weights = true;
  for (core::ClusterWeighting weighting :
       {core::ClusterWeighting::kSquaredFraction,
        core::ClusterWeighting::kFractional, core::ClusterWeighting::kUnweighted}) {
    for (bool normalize : {true, false}) {
      core::FairnessTermConfig config;
      config.weighting = weighting;
      config.normalize_domain = normalize;
      const SeededWorld world = MakeSeededWorld(/*seed=*/51, spec);
      core::FairKMState state = MakeState(world, config);

      Rng rng(52);
      const std::vector<MoveOp> moves =
          RandomMoveSequence(120, world.points.rows(), world.k, &rng);
      for (const MoveOp& move : moves) {
        const double df = BatchedDeltaFairness(state, move.point, move.to);
        const double brute_df =
            BruteForceDeltaFairness(world.sensitive, state.assignment(), world.k,
                                    move.point, move.to, config);
        ASSERT_NEAR(df, brute_df, 1e-9 * std::max(1.0, std::fabs(brute_df)));
        state.Move(move.point, move.to);
      }
      ASSERT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive,
                                         config));
    }
  }
}

TEST(StateInvariants, PrototypeSnapshotFreezesKMeansDeltasUntilRefresh) {
  const SeededWorld world = MakeSeededWorld(/*seed=*/61);
  core::FairKMState state = MakeState(world);
  state.EnablePrototypeSnapshot(true);

  // With a fresh snapshot the delta agrees with the live computation.
  core::FairKMState live = MakeState(world);
  const size_t probe = 5;
  const int target = (live.cluster_of(probe) + 1) % world.k;
  EXPECT_NEAR(state.DeltaKMeans(probe, target), live.DeltaKMeans(probe, target),
              1e-12);

  // After moves the snapshot goes stale; RefreshPrototypes re-synchronizes it
  // with the live aggregates, which stay exact throughout.
  Rng rng(62);
  const std::vector<MoveOp> moves =
      RandomMoveSequence(60, world.points.rows(), world.k, &rng);
  for (const MoveOp& move : moves) {
    state.Move(move.point, move.to);
    live.Move(move.point, move.to);
  }
  state.RefreshPrototypes();
  EXPECT_NEAR(state.DeltaKMeans(probe, target), live.DeltaKMeans(probe, target),
              1e-12);
  EXPECT_TRUE(StateMatchesBruteForce(state, world.points, world.sensitive));
}

}  // namespace
}  // namespace testutil
}  // namespace fairkm
