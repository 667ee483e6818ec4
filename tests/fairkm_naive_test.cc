// Equivalence tests: the fast incremental FairKM and the naive brute-force
// reference must make identical decisions from identical starting points.

#include "core/fairkm_naive.h"

#include <gtest/gtest.h>

#include "core/fairkm.h"
#include "test_util.h"


namespace fairkm {
namespace core {
namespace {

struct World {
  data::Matrix points;
  data::SensitiveView sensitive;
};

World MakeWorld(uint64_t seed, size_t n, int dim, int cardinality) {
  Rng rng(seed);
  World w;
  w.points = data::Matrix(n, static_cast<size_t>(dim));
  for (size_t i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      w.points.At(i, static_cast<size_t>(j)) = rng.Normal(0, 3.0);
    }
  }
  w.sensitive = testutil::MakeView({testutil::MakeCategorical(
      testutil::RandomCodes(n, cardinality, &rng), cardinality)});
  return w;
}

class EquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceSweep, FastAndNaiveAgreeOnAssignmentsAndObjective) {
  World w = MakeWorld(GetParam(), 36, 2, 3);
  FairKMOptions opt;
  opt.k = 3;
  opt.lambda = SuggestLambda(36, 3);
  opt.max_iterations = 12;

  Rng r_fast(1000 + GetParam());
  Rng r_naive(1000 + GetParam());
  auto fast =
      testutil::RunFairKMSession(w.points, w.sensitive, opt, &r_fast)
          .ValueOrDie();
  auto naive = RunFairKMNaive(w.points, w.sensitive, opt, &r_naive).ValueOrDie();

  EXPECT_EQ(fast.assignment, naive.assignment);
  EXPECT_NEAR(fast.kmeans_term, naive.kmeans_term, 1e-6);
  EXPECT_NEAR(fast.fairness_term, naive.fairness_term, 1e-10);
  EXPECT_EQ(fast.iterations, naive.iterations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

TEST(NaiveFairKMTest, LambdaZeroEquivalenceHoldsToo) {
  World w = MakeWorld(42, 30, 2, 4);
  FairKMOptions opt;
  opt.k = 2;
  opt.lambda = 0.0;
  opt.max_iterations = 10;
  Rng r1(7), r2(7);
  auto fast =
      testutil::RunFairKMSession(w.points, w.sensitive, opt, &r1).ValueOrDie();
  auto naive = RunFairKMNaive(w.points, w.sensitive, opt, &r2).ValueOrDie();
  EXPECT_EQ(fast.assignment, naive.assignment);
}

TEST(NaiveFairKMTest, WeightingModesAgree) {
  for (int mode = 0; mode < 3; ++mode) {
    World w = MakeWorld(77 + static_cast<uint64_t>(mode), 24, 2, 2);
    FairKMOptions opt;
    opt.k = 2;
    opt.lambda = 50.0;
    opt.max_iterations = 8;
    opt.fairness.weighting = static_cast<ClusterWeighting>(mode);
    Rng r1(9), r2(9);
    auto fast = testutil::RunFairKMSession(w.points, w.sensitive, opt, &r1)
                    .ValueOrDie();
    auto naive = RunFairKMNaive(w.points, w.sensitive, opt, &r2).ValueOrDie();
    EXPECT_EQ(fast.assignment, naive.assignment) << "weighting mode " << mode;
  }
}

TEST(NaiveFairKMTest, NumericSensitiveAttributesAgree) {
  Rng rng(31);
  const size_t n = 24;
  data::Matrix points(n, 2);
  std::vector<double> income(n);
  for (size_t i = 0; i < n; ++i) {
    points.At(i, 0) = rng.Normal(0, 2);
    points.At(i, 1) = rng.Normal(0, 2);
    income[i] = rng.Normal(50, 15);
  }
  data::SensitiveView view;
  view.numeric.push_back(testutil::MakeNumeric(income, "income"));
  FairKMOptions opt;
  opt.k = 3;
  opt.lambda = 40.0;
  opt.max_iterations = 10;
  Rng r1(11), r2(11);
  auto fast = testutil::RunFairKMSession(points, view, opt, &r1).ValueOrDie();
  auto naive = RunFairKMNaive(points, view, opt, &r2).ValueOrDie();
  EXPECT_EQ(fast.assignment, naive.assignment);
  EXPECT_NEAR(fast.fairness_term, naive.fairness_term, 1e-9);
}

TEST(NaiveFairKMTest, RejectsMiniBatch) {
  World w = MakeWorld(1, 10, 2, 2);
  FairKMOptions opt;
  opt.minibatch_size = 4;
  Rng rng(1);
  EXPECT_FALSE(RunFairKMNaive(w.points, w.sensitive, opt, &rng).ok());
}

TEST(NaiveFairKMTest, ObjectiveHistoryNonIncreasing) {
  World w = MakeWorld(5, 28, 2, 3);
  FairKMOptions opt;
  opt.k = 3;
  opt.lambda = 100.0;
  Rng rng(3);
  auto r = RunFairKMNaive(w.points, w.sensitive, opt, &rng).ValueOrDie();
  for (size_t i = 1; i < r.objective_history.size(); ++i) {
    EXPECT_LE(r.objective_history[i], r.objective_history[i - 1] + 1e-9);
  }
}

}  // namespace
}  // namespace core
}  // namespace fairkm
