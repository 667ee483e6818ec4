// Deterministic-seed golden tests for the lambda heuristic (paper §5.4) and
// the Eq. 9 move-delta computations.
//
// Two kinds of goldens: hand-derived closed-form values on a 4-point world
// small enough to evaluate Eq. 1 on paper, and regression literals captured
// from the deterministic xoshiro-seeded blob world (any change to these is a
// behaviour change of the optimizer state, not a test artifact).

#include <gtest/gtest.h>

#include "core/fairkm.h"
#include "core/fairkm_state.h"
#include "test_util.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace testutil {
namespace {

TEST(SuggestLambdaGolden, MatchesClosedForm) {
  // lambda = (n/k)^2, exactly representable for these inputs.
  EXPECT_EQ(core::SuggestLambda(1000, 5), 40000.0);
  EXPECT_EQ(core::SuggestLambda(60, 3), 400.0);
  EXPECT_EQ(core::SuggestLambda(7, 2), 12.25);
  EXPECT_EQ(core::SuggestLambda(1, 1), 1.0);
  EXPECT_EQ(core::SuggestLambda(0, 4), 0.0);
}

TEST(SuggestLambdaGolden, AutoLambdaFlowsIntoTheSession) {
  const SeededWorld world = MakeSeededWorld(71);  // 3 x 20 points, k = 3.
  core::FairKMOptions options;
  options.k = world.k;
  options.lambda = -1.0;  // auto
  options.max_iterations = 2;
  Rng rng(72);
  auto result = RunFairKMSession(world.points, world.sensitive, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().lambda_used, 400.0);
}

// 4 points on a line with one binary sensitive attribute: every Eq. 9 delta
// below is derivable by hand (see the arithmetic in the comments).
class HandWorldDeltaGolden : public ::testing::Test {
 protected:
  HandWorldDeltaGolden() : points_(4, 1) {
    points_.At(0, 0) = 0.0;
    points_.At(1, 0) = 2.0;
    points_.At(2, 0) = 10.0;
    points_.At(3, 0) = 12.0;
    sensitive_ = MakeView({MakeCategorical({0, 1, 0, 1}, 2)});
    assignment_ = {0, 0, 1, 1};
  }

  core::FairKMState MakeState() {
    return core::FairKMState::Create(&points_, &sensitive_, /*k=*/2, assignment_)
        .ValueOrDie();
  }

  data::Matrix points_;
  data::SensitiveView sensitive_;
  cluster::Assignment assignment_;
};

TEST_F(HandWorldDeltaGolden, InitialTermsAreExact) {
  core::FairKMState state = MakeState();
  // Cluster means 1 and 11; SSE = (1 + 1) + (1 + 1) = 4.
  EXPECT_DOUBLE_EQ(state.KMeansTerm(), 4.0);
  // Both clusters hold one of each code: perfectly balanced, deviation 0.
  EXPECT_DOUBLE_EQ(state.FairnessTerm(), 0.0);
}

TEST_F(HandWorldDeltaGolden, DeltaKMeansMatchesHandArithmetic) {
  core::FairKMState state = MakeState();
  // Move x = 2 into {10, 12}: SSE becomes 0 + (36 + 4 + 16) = 56; delta 52.
  EXPECT_NEAR(state.DeltaKMeans(1, 1), 52.0, 1e-12);
  // Move x = 0 into {10, 12}: new mean 22/3, SSE (484 + 64 + 196)/9 = 744/9;
  // delta 744/9 - 4 = 236/3.
  EXPECT_NEAR(state.DeltaKMeans(0, 1), 236.0 / 3.0, 1e-12);
}

TEST_F(HandWorldDeltaGolden, DeltaFairnessMatchesHandArithmetic) {
  core::FairKMState state = MakeState();
  // Either move unbalances both clusters to u = (±1/2, ∓1/2):
  // deviation = (1/m) * (1/n^2) * (0.5 + 0.5) = (1/2)(1/16) = 1/32 per Eq. 7.
  EXPECT_NEAR(BatchedDeltaFairness(state, 1, 1), 1.0 / 32.0, 1e-12);
  EXPECT_NEAR(BatchedDeltaFairness(state, 0, 1), 1.0 / 32.0, 1e-12);
}

TEST_F(HandWorldDeltaGolden, NumericAttributeDeviationIsExact) {
  // Numeric sensitive attribute (Eq. 22): values 1..4, dataset mean 2.5.
  sensitive_.numeric.push_back(MakeNumeric({1.0, 2.0, 3.0, 4.0}));
  core::FairKMState state = MakeState();
  // Per cluster u = sum - size * mean = ±2; deviation = (4 + 4)/16 = 1/2.
  EXPECT_DOUBLE_EQ(state.FairnessTerm(), 0.5);
}

// Regression goldens on the canonical seeded world. The literals were
// captured from the deterministic Rng stream (seed 81) and pin down the
// exact Eq. 9 delta values; they must only change if the objective or the
// world construction intentionally changes.
TEST(SeededWorldDeltaGolden, PinsMoveDeltas) {
  const SeededWorld world = MakeSeededWorld(81);
  core::FairKMState state =
      core::FairKMState::Create(&world.points, &world.sensitive, world.k,
                                world.assignment)
          .ValueOrDie();

  const double golden_kmeans_term = 1551.8286071939265;
  const double golden_fairness_term = 0.017684001361378786;
  const double golden_dk_0_2 = 5.5244716547810029;
  const double golden_dk_17_0 = -3.6503784594237914;
  const double golden_df_0_2 = -0.00387954991721316;
  const double golden_df_17_0 = -0.00089419222904834326;

  EXPECT_NEAR(state.KMeansTerm(), golden_kmeans_term, 1e-9);
  EXPECT_NEAR(state.FairnessTerm(), golden_fairness_term, 1e-12);
  EXPECT_NEAR(state.DeltaKMeans(0, 2), golden_dk_0_2, 1e-9);
  EXPECT_NEAR(state.DeltaKMeans(17, 0), golden_dk_17_0, 1e-9);
  EXPECT_NEAR(BatchedDeltaFairness(state, 0, 2), golden_df_0_2, 1e-12);
  EXPECT_NEAR(BatchedDeltaFairness(state, 17, 0), golden_df_17_0, 1e-12);
}

// Lambda annealing (RunBudget.lambda_schedule): a schedule returning the
// session's current lambda must be a strict no-op — the run is bit-identical
// to one without a schedule (assignment, per-sweep objective history, sweep
// count) — and a genuinely annealing schedule must be applied through
// SetLambda at every sweep boundary.
TEST(LambdaScheduleGolden, ConstantScheduleIsABitIdenticalNoOp) {
  const SeededWorld world = MakeSeededWorld(91);
  core::FairKMOptions options;
  options.k = world.k;
  options.lambda = 400.0;
  options.max_iterations = 8;

  core::FairKMSolver plain =
      core::FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(plain.Init(uint64_t{93}).ok());
  ASSERT_TRUE(plain.Run().ok());

  core::FairKMSolver scheduled =
      core::FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(scheduled.Init(uint64_t{93}).ok());
  core::RunBudget budget;
  int calls = 0;
  budget.lambda_schedule = [&calls](int /*sweep*/) {
    ++calls;
    return 400.0;
  };
  ASSERT_TRUE(scheduled.Run(budget).ok());

  EXPECT_GT(calls, 0);
  EXPECT_EQ(scheduled.lambda(), 400.0);
  EXPECT_EQ(scheduled.sweeps_completed(), plain.sweeps_completed());
  EXPECT_EQ(scheduled.assignment(), plain.assignment());
  // Bit-identical, not approximately equal: the schedule must not have
  // perturbed a single double along the trajectory.
  ASSERT_EQ(scheduled.objective_history().size(),
            plain.objective_history().size());
  for (size_t i = 0; i < plain.objective_history().size(); ++i) {
    EXPECT_EQ(scheduled.objective_history()[i], plain.objective_history()[i])
        << "sweep " << i;
  }
}

TEST(LambdaScheduleGolden, AnnealingScheduleAppliesAtEverySweepBoundary) {
  const SeededWorld world = MakeSeededWorld(95);
  core::FairKMOptions options;
  options.k = world.k;
  options.lambda = 400.0;
  options.max_iterations = 6;

  core::FairKMSolver solver =
      core::FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{97}).ok());
  core::RunBudget budget;
  std::vector<int> consulted;
  budget.lambda_schedule = [&consulted](int sweep) {
    consulted.push_back(sweep);
    return 100.0 * static_cast<double>(sweep);
  };
  ASSERT_TRUE(solver.Run(budget).ok());

  // Consulted with the 1-based index of every sweep that was about to run.
  ASSERT_FALSE(consulted.empty());
  for (size_t i = 0; i < consulted.size(); ++i) {
    EXPECT_EQ(consulted[i], static_cast<int>(i) + 1);
  }
  // The last scheduled weight is live in the session.
  EXPECT_EQ(solver.lambda(), 100.0 * static_cast<double>(consulted.back()));
}

}  // namespace
}  // namespace testutil
}  // namespace fairkm
