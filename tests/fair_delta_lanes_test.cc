// Lane exactness of the batched fairness deltas: every lane of
// FairKMState::DeltaFairnessAllClusters must equal the per-candidate
// closed form (testutil::OracleDeltaFairness) and every lane of
// FairInsertionDeltaAllClusters the per-candidate table lookup
// (testutil::OracleFairInsertionDelta) — compared with ==, on both the
// scalar and the dispatched kernel backend, across every cluster weighting,
// with and without domain normalization, over categorical and numeric
// attributes, for k = 1, 2, 5, 8, 13 (full vectors, vector tails and
// scalar-only widths), through an empty target cluster and a singleton
// origin. A lane that reassociates the formula fails here.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fairkm_state.h"
#include "core/kernels/kernels.h"
#include "core/objective.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace testutil {
namespace {

using core::ClusterWeighting;
using core::kernels::Backend;

// (weighting, normalize_domain, k)
using LaneParam = std::tuple<ClusterWeighting, bool, int>;

class FairDeltaLanesTest : public ::testing::TestWithParam<LaneParam> {
 protected:
  void TearDown() override { core::kernels::SetActiveBackend(nullptr); }
};

// Compares both batched entries against their oracles for every point.
void ExpectAllLanesExact(const core::FairKMState& state, const char* phase) {
  SCOPED_TRACE(phase);
  const size_t k = static_cast<size_t>(state.k());
  std::vector<double> fair(k), ins(k);
  for (size_t i = 0; i < state.num_rows(); ++i) {
    state.DeltaFairnessAllClusters(i, fair.data());
    state.FairInsertionDeltaAllClusters(i, ins.data());
    for (size_t c = 0; c < k; ++c) {
      const int to = static_cast<int>(c);
      EXPECT_EQ(fair[c], OracleDeltaFairness(state, i, to))
          << "point " << i << " -> " << c;
      EXPECT_EQ(ins[c], OracleFairInsertionDelta(state, i, to))
          << "point " << i << " -> " << c;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST_P(FairDeltaLanesTest, EveryLaneEqualsThePerCandidateOracle) {
  const auto [weighting, normalize, k] = GetParam();
  core::FairnessTermConfig config;
  config.weighting = weighting;
  config.normalize_domain = normalize;
  WorldSpec spec;
  spec.blobs = 3;
  spec.per_blob = 15;
  spec.k = k;
  spec.categorical_attrs = 3;
  spec.numeric_attrs = 2;
  spec.random_weights = true;
  const SeededWorld world = MakeSeededWorld(400 + static_cast<uint64_t>(k), spec);

  std::vector<const Backend*> backends = {&core::kernels::ScalarBackend()};
  const Backend* dispatched = &core::kernels::DispatchBackend(false);
  if (dispatched != backends[0]) backends.push_back(dispatched);
  for (const Backend* backend : backends) {
    SCOPED_TRACE(backend->name);
    core::kernels::SetActiveBackend(backend);
    core::FairKMState state =
        core::FairKMState::Create(&world.points, &world.sensitive, k,
                                  world.assignment, config)
            .ValueOrDie();
    state.EnableBoundTracking(true);
    ExpectAllLanesExact(state, "random assignment");

    if (k >= 2) {
      // Empty the last cluster: every point's candidates include it.
      const int empty = k - 1;
      for (size_t i = 0; i < state.num_rows(); ++i) {
        if (state.cluster_of(i) == empty) state.Move(i, 0);
      }
      ASSERT_EQ(state.cluster_size(empty), 0u);
      ExpectAllLanesExact(state, "empty target cluster");

      // Refill it with one point: that point's origin is a singleton.
      state.Move(0, empty);
      ASSERT_EQ(state.cluster_size(empty), 1u);
      ExpectAllLanesExact(state, "singleton origin");
    }

    Rng rng(77 + static_cast<uint64_t>(k));
    for (const MoveOp& op :
         RandomMoveSequence(60, state.num_rows(), k, &rng)) {
      state.Move(op.point, op.to);
    }
    ExpectAllLanesExact(state, "after random moves");
  }
}

std::string LaneParamName(const ::testing::TestParamInfo<LaneParam>& info) {
  static const char* kNames[] = {"squared_fraction", "fractional",
                                 "unweighted"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "_normalized" : "_raw") + "_k" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FairDeltaLanesTest,
    ::testing::Combine(::testing::Values(ClusterWeighting::kSquaredFraction,
                                         ClusterWeighting::kFractional,
                                         ClusterWeighting::kUnweighted),
                       ::testing::Bool(), ::testing::Values(1, 2, 5, 8, 13)),
    LaneParamName);

}  // namespace
}  // namespace testutil
}  // namespace fairkm
