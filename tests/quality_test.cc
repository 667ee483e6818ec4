#include "metrics/quality.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <vector>

#include "cluster/kmeans.h"
#include "core/kernels/kernels.h"
#include "test_util.h"
#include "testlib/brute_force.h"

namespace fairkm {
namespace metrics {
namespace {

using cluster::Assignment;

TEST(ClusteringObjectiveTest, MatchesHandComputation) {
  data::Matrix pts(4, 1);
  pts.At(0, 0) = 0;
  pts.At(1, 0) = 2;
  pts.At(2, 0) = 10;
  pts.At(3, 0) = 14;
  // Clusters {0,2} mean 1 (SSE 2) and {10,14} mean 12 (SSE 8).
  EXPECT_DOUBLE_EQ(ClusteringObjective(pts, {0, 0, 1, 1}, 2), 10.0);
}

TEST(SilhouetteTest, WellSeparatedBlobsScoreHigh) {
  Rng rng(1);
  data::Matrix pts = testutil::MakeBlobs(3, 30, 3, &rng);
  cluster::KMeansOptions opt;
  opt.k = 3;
  Rng krng(2);
  auto r = cluster::RunKMeans(pts, opt, &krng).ValueOrDie();
  EXPECT_GT(SilhouetteScore(pts, r.assignment, 3), 0.6);
}

TEST(SilhouetteTest, RandomAssignmentScoresNearZero) {
  Rng rng(3);
  data::Matrix pts = testutil::MakeBlobs(3, 30, 3, &rng);
  Assignment random(90);
  for (size_t i = 0; i < 90; ++i) {
    random[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{3}));
  }
  EXPECT_LT(std::fabs(SilhouetteScore(pts, random, 3)), 0.25);
}

TEST(SilhouetteTest, SingleClusterIsZero) {
  Rng rng(5);
  data::Matrix pts = testutil::MakeBlobs(1, 20, 2, &rng);
  EXPECT_EQ(SilhouetteScore(pts, Assignment(20, 0), 1), 0.0);
}

TEST(SilhouetteTest, SingletonClustersScoreZero) {
  data::Matrix pts(3, 1);
  pts.At(0, 0) = 0;
  pts.At(1, 0) = 1;
  pts.At(2, 0) = 10;
  // Cluster 1 = {2} is a singleton; overall mean includes a 0 for it.
  const double s = SilhouetteScore(pts, {0, 0, 1}, 2);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(SilhouetteTest, SampledApproximatesExact) {
  Rng rng(7);
  data::Matrix pts = testutil::MakeBlobs(4, 60, 3, &rng, /*spread=*/1.2);
  cluster::KMeansOptions opt;
  opt.k = 4;
  Rng krng(8);
  auto r = cluster::RunKMeans(pts, opt, &krng).ValueOrDie();
  SilhouetteOptions exact;
  exact.max_exact_rows = 10000;
  SilhouetteOptions sampled;
  sampled.max_exact_rows = 1;  // Force sampling.
  sampled.sample_size = 120;
  const double se = SilhouetteScore(pts, r.assignment, 4, exact);
  const double ss = SilhouetteScore(pts, r.assignment, 4, sampled);
  EXPECT_NEAR(se, ss, 0.1);
}

// --- Kernel-backed silhouette vs the scalar oracle, bit for bit ---

std::vector<const core::kernels::Backend*> KernelBackends() {
  std::vector<const core::kernels::Backend*> backends = {
      &core::kernels::ScalarBackend()};
  if (const auto* avx2 = core::kernels::Avx2Backend()) backends.push_back(avx2);
  return backends;
}

// Values spanning several orders of magnitude, so a changed summation order
// would show in the last bits.
data::Matrix RandomPoints(size_t n, size_t d, Rng* rng) {
  data::Matrix pts(n, d);
  for (double& v : pts.data()) {
    v = rng->UniformDouble(-1.0, 1.0) * std::pow(10.0, rng->UniformDouble(-3.0, 3.0));
  }
  return pts;
}

Assignment RandomLabels(size_t n, int k, Rng* rng) {
  Assignment labels(n);
  for (auto& c : labels) {
    c = static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(k)));
  }
  return labels;
}

// SilhouetteScore under every available backend must equal the oracle to the
// bit (memcmp, so even a sign-of-zero difference fails).
::testing::AssertionResult MatchesOracle(const data::Matrix& pts,
                                         const Assignment& labels, int k,
                                         const SilhouetteOptions& options = {}) {
  const double want = testutil::BruteForceSilhouette(pts, labels, k, options);
  ::testing::AssertionResult result = ::testing::AssertionSuccess();
  for (const core::kernels::Backend* backend : KernelBackends()) {
    core::kernels::SetActiveBackend(backend);
    const double got = SilhouetteScore(pts, labels, k, options);
    if (std::memcmp(&got, &want, sizeof(double)) != 0) {
      result = ::testing::AssertionFailure()
               << backend->name << ": " << std::setprecision(17) << got
               << " vs oracle " << want;
      break;
    }
  }
  core::kernels::SetActiveBackend(nullptr);
  return result;
}

TEST(SilhouetteKernelTest, ExactPathMatchesOracleAcrossShapes) {
  Rng rng(101);
  for (size_t n : {1, 2, 3, 5, 37}) {
    for (size_t d : {1, 3, 4, 5, 31, 32, 33}) {
      for (int k : {1, 2, 3}) {
        const data::Matrix pts = RandomPoints(n, d, &rng);
        EXPECT_TRUE(MatchesOracle(pts, RandomLabels(n, k, &rng), k))
            << "n=" << n << " d=" << d << " k=" << k;
      }
    }
  }
}

// n = 4097 exceeds max_exact_rows, so the default options take the sampled
// path: 2000 probes = 250 full tiles over a row count that is not a multiple
// of the 4-row block.
TEST(SilhouetteKernelTest, SampledPathMatchesOracle) {
  Rng rng(102);
  const data::Matrix pts = RandomPoints(4097, 5, &rng);
  EXPECT_TRUE(MatchesOracle(pts, RandomLabels(4097, 4, &rng), 4));
}

// Probe counts 1..9 and 2001 leave a partial last tile.
TEST(SilhouetteKernelTest, PartialProbeTilesMatchOracle) {
  Rng rng(103);
  SilhouetteOptions sampled;
  sampled.max_exact_rows = 0;
  const data::Matrix pts = RandomPoints(61, 7, &rng);
  const Assignment labels = RandomLabels(61, 4, &rng);
  for (size_t probes = 1; probes <= 9; ++probes) {
    sampled.sample_size = probes;
    EXPECT_TRUE(MatchesOracle(pts, labels, 4, sampled)) << "probes=" << probes;
  }
  sampled.sample_size = 2001;
  const data::Matrix wide = RandomPoints(2003, 3, &rng);
  EXPECT_TRUE(MatchesOracle(wide, RandomLabels(2003, 3, &rng), 3, sampled));
}

TEST(SilhouetteKernelTest, DegenerateClusteringsMatchOracle) {
  Rng rng(104);
  const data::Matrix pts = RandomPoints(23, 6, &rng);
  // Empty clusters: only labels 0, 2 and 5 of k = 6 occur.
  const int32_t used[] = {0, 2, 5};
  Assignment sparse(23);
  for (size_t i = 0; i < 23; ++i) sparse[i] = used[i % 3];
  EXPECT_TRUE(MatchesOracle(pts, sparse, 6));
  // Singleton clusters next to a large one.
  Assignment singletons(23, 0);
  singletons[4] = 1;
  singletons[17] = 2;
  EXPECT_TRUE(MatchesOracle(pts, singletons, 3));
  // k = 1: every probe scores 0.
  EXPECT_TRUE(MatchesOracle(pts, Assignment(23, 0), 1));
  // Duplicate rows give exact zero distances, inside and across clusters.
  data::Matrix dup = RandomPoints(13, 5, &rng);
  for (size_t i = 1; i < 13; i += 2) {
    std::copy(dup.Row(i - 1), dup.Row(i - 1) + 5, dup.Row(i));
  }
  EXPECT_TRUE(MatchesOracle(dup, RandomLabels(13, 3, &rng), 3));
  // All rows identical: a = b = 0 for every probe.
  data::Matrix same(9, 4, 0.25);
  EXPECT_TRUE(MatchesOracle(same, RandomLabels(9, 2, &rng), 2));
}

TEST(CentroidDeviationTest, IdenticalCentroidsZero) {
  Rng rng(9);
  data::Matrix c(3, 4);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) c.At(i, j) = rng.Normal(0, 1);
  }
  auto r = CentroidDeviation(c, c);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie(), 0.0, 1e-12);
}

TEST(CentroidDeviationTest, PermutationInvariant) {
  data::Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(1, 0) = 5;
  data::Matrix b(2, 2);
  b.At(0, 0) = 5;  // Same centroids, swapped order.
  b.At(1, 0) = 1;
  auto r = CentroidDeviation(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie(), 0.0, 1e-12);
}

TEST(CentroidDeviationTest, KnownDisplacement) {
  data::Matrix a(2, 1);
  a.At(0, 0) = 0;
  a.At(1, 0) = 10;
  data::Matrix b(2, 1);
  b.At(0, 0) = 1;   // 0 -> 1: squared distance 1.
  b.At(1, 0) = 12;  // 10 -> 12: squared distance 4.
  auto r = CentroidDeviation(a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.ValueOrDie(), 5.0);
}

TEST(CentroidDeviationTest, ShapeMismatchesRejected) {
  data::Matrix a(2, 2), b(3, 2), c(2, 3);
  std::ignore = a;
  EXPECT_FALSE(CentroidDeviation(a, b).ok());
  EXPECT_FALSE(CentroidDeviation(a, c).ok());
}

TEST(ObjectPairDeviationTest, IdenticalClusteringsZero) {
  Assignment a = {0, 1, 2, 0, 1, 2};
  auto r = ObjectPairDeviation(a, 3, a, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 0.0);
}

TEST(ObjectPairDeviationTest, LabelPermutationIsStillZero) {
  Assignment a = {0, 0, 1, 1};
  Assignment b = {1, 1, 0, 0};
  auto r = ObjectPairDeviation(a, 2, b, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 0.0);
}

TEST(ObjectPairDeviationTest, CompleteDisagreement) {
  // a: {01}{23}; b: {02}{13} — every pair verdict flips except none agree...
  Assignment a = {0, 0, 1, 1};
  Assignment b = {0, 1, 0, 1};
  // Pairs together in a: (0,1), (2,3); both apart in b. Pairs together in b:
  // (0,2), (1,3); both apart in a. Disagreements = 4 of 6 pairs.
  auto r = ObjectPairDeviation(a, 2, b, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.ValueOrDie(), 4.0 / 6.0, 1e-12);
}

TEST(ObjectPairDeviationTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 40;
    Assignment a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{3}));
      b[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{4}));
    }
    size_t disagree = 0, total = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        ++total;
        if ((a[i] == a[j]) != (b[i] == b[j])) ++disagree;
      }
    }
    auto r = ObjectPairDeviation(a, 3, b, 4);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r.ValueOrDie(), static_cast<double>(disagree) / total, 1e-12);
  }
}

TEST(ObjectPairDeviationTest, SizeMismatchRejected) {
  EXPECT_FALSE(ObjectPairDeviation({0, 1}, 2, {0}, 2).ok());
}

TEST(ObjectPairDeviationTest, TinyInputs) {
  auto r = ObjectPairDeviation({0}, 1, {0}, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 0.0);
}

}  // namespace
}  // namespace metrics
}  // namespace fairkm
