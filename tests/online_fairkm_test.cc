// Online fairness engine (src/online/): the batch-rebuild oracle (any
// admit/retire sequence + Flush() is bit-identical to a from-scratch state
// over the surviving points), the order-independent dataset distribution
// (integer counts, exactly rounded numeric means), pruned == unpruned under
// churn, the drift monitor end to end (an injected non-finite objective
// reading triggers exactly one bounded re-sweep and a fresh snapshot
// generation), durable checkpoint/recover round-trips, and the whole-batch
// admit/retire validation contract.

#include "online/online_fairkm.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/fairkm_state.h"
#include "data/dataset.h"
#include "serve/assign_service.h"
#include "test_util.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace online {
namespace {

namespace fs = std::filesystem;

using testutil::BruteForceExactSum;
using testutil::MakeBlobs;
using testutil::MakeCategorical;
using testutil::MakeNumeric;
using testutil::MakeSeededWorld;
using testutil::MakeView;
using testutil::RandomCodes;
using testutil::SeededWorld;

// One engine configuration per pruning x mini-batch cell the oracle
// property must hold in (the kernel-backend axis is covered by the CI
// job that re-runs this suite under FAIRKM_FORCE_SCALAR=1).
// gtest_discover_tests embeds sizeof(EngineConfig) in every ctest name
// ("GetParam() = 24-byte object"); the size_t mini-batch keeps the struct
// at 24 bytes so the rows' ctest names stay stable.
struct EngineConfig {
  const char* name;
  size_t minibatch;
  bool pruning;
};

std::vector<EngineConfig> AllConfigs() {
  return {
      {"serial_pruned", 0, true},
      {"serial_unpruned", 0, false},
      {"serial_minibatch", 16, true},
      {"serial_minibatch_unpruned", 16, false},
  };
}

OnlineOptions MakeOptions(const SeededWorld& world, const EngineConfig& cfg) {
  OnlineOptions options;
  options.solver.k = world.k;
  // Fixed lambda: the auto heuristic depends on n, which an online engine
  // changes — a fixed weight keeps the oracle comparison exact and simple.
  options.solver.lambda = 60.0;
  options.solver.minibatch_size = static_cast<int>(cfg.minibatch);
  options.solver.enable_pruning = cfg.pruning;
  // The oracle property is about admit/retire bookkeeping, not drift: an
  // enormous tolerance keeps the monitor quiet (the drift path has its own
  // deterministic tests below).
  options.drift.regression_tolerance = 1e12;
  return options;
}

// An admit batch mirroring the training view's attribute structure.
data::SensitiveView MakeAdmitView(const data::SensitiveView& training,
                                  size_t rows, Rng* rng) {
  data::SensitiveView view;
  for (const auto& attr : training.categorical) {
    data::CategoricalSensitive a;
    a.name = attr.name;
    a.cardinality = attr.cardinality;
    a.weight = attr.weight;
    a.codes = RandomCodes(rows, attr.cardinality, rng);
    a.dataset_fractions.assign(static_cast<size_t>(attr.cardinality), 0.0);
    view.categorical.push_back(std::move(a));
  }
  for (const auto& attr : training.numeric) {
    data::NumericSensitive a;
    a.name = attr.name;
    a.weight = attr.weight;
    a.values.resize(rows);
    for (double& v : a.values) v = rng->Normal(0.0, 1.0);
    view.numeric.push_back(std::move(a));
  }
  return view;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The from-scratch dataset mean of a numeric attribute: the exactly rounded
// sum of the values, taken in a shuffled order so no row order is
// privileged, divided by n.
double ScratchMean(std::vector<double> values, Rng* rng) {
  rng->Shuffle(&values);
  return BruteForceExactSum(values) / static_cast<double>(values.size());
}

// The dataset-level distribution a cold load of `view`'s rows computes:
// integer counts over n, and exactly rounded means.
data::SensitiveView ScratchDistribution(const data::SensitiveView& view) {
  std::vector<data::CategoricalSensitive> cats;
  for (const auto& attr : view.categorical) {
    data::CategoricalSensitive fresh =
        MakeCategorical(attr.codes, attr.cardinality, attr.name);
    fresh.weight = attr.weight;
    cats.push_back(std::move(fresh));
  }
  data::SensitiveView fresh_view = MakeView(std::move(cats));
  Rng shuffle(0x5EED);
  for (const auto& attr : view.numeric) {
    data::NumericSensitive fresh = MakeNumeric(attr.values, attr.name);
    fresh.weight = attr.weight;
    fresh.dataset_mean = ScratchMean(attr.values, &shuffle);
    fresh_view.numeric.push_back(std::move(fresh));
  }
  return fresh_view;
}

// A seeded world whose numeric attribute opens with values a left-to-right
// sum gets wrong (1e16 + 1 - 1e16 is 0 that way, exactly 1), carrying the
// from-scratch distribution.
SeededWorld MakeCancellingWorld(uint64_t seed) {
  SeededWorld world = MakeSeededWorld(seed);
  std::vector<double>& values = world.sensitive.numeric.at(0).values;
  values[0] = 1e16;
  values[1] = 1.0;
  values[2] = -1e16;
  world.sensitive = ScratchDistribution(world.sensitive);
  return world;
}

// The oracle: Flush(), then rebuild a FRESH FairKMState over copies of the
// surviving rows / raw sensitive codes / current assignment — exactly what a
// from-scratch load of the surviving dataset would construct — and demand
// bit-identical aggregates, moment tables and objective terms.
void ExpectOracleEquality(OnlineFairKM* engine) {
  ASSERT_TRUE(engine->Flush().ok());

  const data::Matrix points = engine->SurvivingPoints();
  const data::SensitiveView survived = engine->SurvivingSensitive();
  cluster::Assignment assignment = engine->CurrentAssignment();

  // Rebuild the dataset-level distribution from the raw codes/values the way
  // a cold load would; the engine's incrementally refreshed fractions/means
  // must already equal these doubles bit-for-bit.
  data::SensitiveView fresh_view = ScratchDistribution(survived);
  for (size_t a = 0; a < survived.categorical.size(); ++a) {
    for (size_t s = 0; s < survived.categorical[a].dataset_fractions.size();
         ++s) {
      EXPECT_EQ(survived.categorical[a].dataset_fractions[s],
                fresh_view.categorical[a].dataset_fractions[s])
          << "fraction drifted: attribute " << a << " value " << s;
    }
  }
  for (size_t a = 0; a < survived.numeric.size(); ++a) {
    EXPECT_TRUE(SameBits(survived.numeric[a].dataset_mean,
                         fresh_view.numeric[a].dataset_mean))
        << "numeric mean drifted: attribute " << a << ": "
        << survived.numeric[a].dataset_mean << " vs "
        << fresh_view.numeric[a].dataset_mean;
  }

  auto fresh_result = core::FairKMState::Create(
      &points, &fresh_view, engine->solver().k(), std::move(assignment));
  ASSERT_TRUE(fresh_result.ok()) << fresh_result.status().ToString();
  core::FairKMState fresh = std::move(fresh_result).ValueOrDie();
  const core::FairKMState& live = engine->solver().state();

  ASSERT_EQ(live.num_rows(), fresh.num_rows());
  EXPECT_EQ(live.assignment(), fresh.assignment());
  for (int c = 0; c < live.k(); ++c) {
    EXPECT_EQ(live.cluster_size(c), fresh.cluster_size(c)) << "cluster " << c;
  }
  EXPECT_TRUE(live.cluster_sums() == fresh.cluster_sums())
      << "cluster feature sums drifted";

  const core::FairnessMomentTables& ma = live.fairness_moments();
  const core::FairnessMomentTables& mb = fresh.fairness_moments();
  EXPECT_EQ(ma.cat_counts, mb.cat_counts);
  EXPECT_EQ(ma.cat_u2, mb.cat_u2);
  EXPECT_EQ(ma.cat_uq, mb.cat_uq);
  EXPECT_EQ(ma.cat_q2, mb.cat_q2);
  EXPECT_EQ(ma.num_sums, mb.num_sums);

  // Objective terms, bit for bit — the flushed norm cache carries the same
  // chunked summation order a fresh Create runs.
  EXPECT_EQ(live.KMeansTermCached(), fresh.KMeansTermCached());
  EXPECT_EQ(live.FairnessTermCached(), fresh.FairnessTermCached());
}

// Create derives the numeric means from its rows before the first train, so
// a flush right after Create already meets the oracle. The world's own mean
// is a left-to-right sum, one ulp away from the exact one for this seed.
TEST(OnlineOracle, FreshEngineMatchesScratchRebuild) {
  const SeededWorld world = MakeSeededWorld(59);
  ASSERT_FALSE(world.sensitive.numeric.empty());
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/6);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ExpectOracleEquality(created.ValueOrDie().get());
}

// Callers build fractions with CategoricalColumn::Fractions (count * (1/n)),
// which can sit one ulp from the engine's count / n; Create must still train
// on the rebuild's distribution.
TEST(OnlineOracle, FreshEngineFromColumnFractionsMatchesScratchRebuild) {
  SeededWorld world = MakeSeededWorld(59);
  bool differs = false;
  for (auto& attr : world.sensitive.categorical) {
    data::CategoricalColumn column;
    column.codes = attr.codes;
    column.labels.resize(static_cast<size_t>(attr.cardinality));
    attr.dataset_fractions = column.Fractions();
    std::vector<int64_t> counts(column.labels.size(), 0);
    for (const int32_t c : attr.codes) ++counts[static_cast<size_t>(c)];
    for (size_t s = 0; s < counts.size(); ++s) {
      differs |= attr.dataset_fractions[s] !=
                 static_cast<double>(counts[s]) /
                     static_cast<double>(attr.codes.size());
    }
  }
  ASSERT_TRUE(differs) << "the world no longer exercises the ulp gap";
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/6);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ExpectOracleEquality(created.ValueOrDie().get());
}

class OnlineOracleTest : public ::testing::TestWithParam<EngineConfig> {};

// >= 100 randomized admit/retire ops, interleaved flushes, then the oracle.
TEST_P(OnlineOracleTest, RandomizedAdmitRetireFlushMatchesScratchRebuild) {
  const EngineConfig cfg = GetParam();
  const SeededWorld world = MakeSeededWorld(201);
  const OnlineOptions options = MakeOptions(world, cfg);
  auto created = OnlineFairKM::Create(world.points, world.sensitive, options,
                                      /*seed=*/7);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  Rng rng(303);
  const size_t dim = world.points.cols();
  for (int op = 0; op < 120; ++op) {
    const std::vector<uint64_t> live = engine->LiveIds();
    const bool admit = rng.UniformInt(10) < 6 || live.size() < 20;
    if (admit) {
      const size_t batch = 1 + rng.UniformInt(4);
      const data::Matrix pts =
          MakeBlobs(1, static_cast<int>(batch), static_cast<int>(dim), &rng);
      const data::SensitiveView sv =
          MakeAdmitView(world.sensitive, batch, &rng);
      auto ids = engine->Admit(pts, &sv);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      ASSERT_EQ(ids.ValueOrDie().size(), batch);
    } else {
      const size_t want = 1 + rng.UniformInt(3);
      std::unordered_set<uint64_t> picked;
      while (picked.size() < want && picked.size() + 1 < live.size()) {
        picked.insert(live[rng.UniformInt(live.size())]);
      }
      const std::vector<uint64_t> batch(picked.begin(), picked.end());
      const Status st = engine->Retire(batch);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    // Interleave canonical rebuilds so post-flush admits/retires are
    // exercised too (the engine must stay consistent across the reset).
    if (op % 37 == 36) {
      ASSERT_TRUE(engine->Flush().ok());
    }
  }
  const OnlineStats stats = engine->Stats();
  EXPECT_GE(stats.admitted + stats.retired, 100u);
  ExpectOracleEquality(engine.get());
}

// The oracle must also hold immediately after a bounded re-sweep (the
// re-sweep itself starts from a canonical rebuild and only applies moves).
TEST_P(OnlineOracleTest, OracleHoldsAfterForcedResweep) {
  const EngineConfig cfg = GetParam();
  const SeededWorld world = MakeSeededWorld(77);
  auto created = OnlineFairKM::Create(world.points, world.sensitive,
                                      MakeOptions(world, cfg), /*seed=*/3);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  Rng rng(55);
  const data::Matrix pts = MakeBlobs(1, 9, static_cast<int>(world.points.cols()),
                                     &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 9, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());
  const std::vector<uint64_t> live = engine->LiveIds();
  ASSERT_TRUE(engine->Retire({live[0], live[3], live[10]}).ok());

  const double before = engine->Stats().last_objective;
  ASSERT_TRUE(engine->TriggerResweep().ok());
  const OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.resweeps, 1u);
  EXPECT_GE(stats.flushes, 1u);
  EXPECT_EQ(stats.generation, 2u);  // Create published 1, re-sweep published 2.
  // A re-sweep only ever applies improving moves over the flushed state.
  EXPECT_LE(stats.last_objective, before + 1e-9);
  ExpectOracleEquality(engine.get());
}

INSTANTIATE_TEST_SUITE_P(AllModes, OnlineOracleTest,
                         ::testing::ValuesIn(AllConfigs()),
                         [](const ::testing::TestParamInfo<EngineConfig>& info) {
                           return std::string(info.param.name);
                         });

class OnlineDriftTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

// End-to-end drift response: an injected non-finite objective reading (the
// shared "supervisor.objective" fault point) trips the monitor exactly once
// — one bounded re-sweep, one new snapshot generation on the service — and
// operation continues normally once the fault disarms itself.
TEST_F(OnlineDriftTest, InjectedRegressionTriggersExactlyOneBoundedResweep) {
  const SeededWorld world = MakeSeededWorld(11);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  // Only a non-finite reading can trip the monitor under this tolerance, so
  // the single injected fault below is the only possible trigger.
  options.drift.regression_tolerance = 1e9;
  options.drift.resweep_max_sweeps = 2;

  serve::AssignService service;
  auto created = OnlineFairKM::Create(world.points, world.sensitive, options,
                                      /*seed=*/5, &service);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  ASSERT_EQ(engine->Stats().generation, 1u);
  ASSERT_NE(service.snapshot(), nullptr);
  ASSERT_EQ(service.snapshot()->version(), 1u);

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kError;
  spec.max_fires = 1;
  fault::Arm("supervisor.objective", spec);

  Rng rng(21);
  const data::Matrix pts = MakeBlobs(1, 3, static_cast<int>(world.points.cols()),
                                     &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 3, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());

  OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.resweeps, 1u);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(service.snapshot()->version(), 2u);

  // The fault disarmed itself after one firing: further admits see a finite,
  // healthy objective and must NOT re-trigger.
  const data::SensitiveView sv2 = MakeAdmitView(world.sensitive, 3, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv2).ok());
  stats = engine->Stats();
  EXPECT_EQ(stats.resweeps, 1u);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(service.snapshot()->version(), 2u);
}

// The baseline refresh after a re-sweep: the new baseline is the re-swept
// per-point objective, so the monitor re-arms against the recovered level.
TEST_F(OnlineDriftTest, ResweepRefreshesTheDriftBaseline) {
  const SeededWorld world = MakeSeededWorld(13);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e9;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/9);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  ASSERT_TRUE(engine->TriggerResweep().ok());
  const OnlineStats stats = engine->Stats();
  EXPECT_EQ(stats.baseline_per_point,
            stats.last_objective / static_cast<double>(stats.live_rows));
}

class OnlineRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fairkm_online_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(OnlineRecoveryTest, CheckpointRecoverRoundTripsTheEngine) {
  const SeededWorld world = MakeSeededWorld(31);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  options.checkpoint_dir = dir_.string();

  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/1);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();

  Rng rng(41);
  const data::Matrix pts = MakeBlobs(1, 6, static_cast<int>(world.points.cols()),
                                     &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 6, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());
  const std::vector<uint64_t> live = engine->LiveIds();
  ASSERT_TRUE(engine->Retire({live[2], live[7]}).ok());
  // Flush before checkpointing: the solver checkpoint restores the
  // aggregates bit-exactly, but the per-point norm cache is rebuilt
  // canonically at recovery — flushing makes the live cache canonical too,
  // so the recovered objective is bit-identical, not merely close.
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Checkpoint().ok());

  const OnlineStats before = engine->Stats();
  const std::vector<uint64_t> ids_before = engine->LiveIds();
  const cluster::Assignment assign_before = engine->CurrentAssignment();
  engine.reset();

  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> twin = std::move(recovered).ValueOrDie();
  const OnlineStats after = twin->Stats();
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.retired, before.retired);
  EXPECT_EQ(after.live_rows, before.live_rows);
  EXPECT_EQ(after.generation, before.generation + 1);  // Fresh publish.
  EXPECT_EQ(after.last_objective, before.last_objective);  // Bit-exact solver.
  EXPECT_EQ(twin->LiveIds(), ids_before);
  EXPECT_EQ(twin->CurrentAssignment(), assign_before);

  // The recovered engine keeps operating: new ids continue past the old
  // counter (no reuse), and the oracle still holds.
  auto ids = twin->Admit(pts, &sv);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  for (const uint64_t id : ids.ValueOrDie()) {
    for (const uint64_t old : ids_before) EXPECT_NE(id, old);
  }
  ExpectOracleEquality(twin.get());
}

TEST_F(OnlineRecoveryTest, LostSolverFileFallsBackToWarmStartRebuild) {
  const SeededWorld world = MakeSeededWorld(37);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.checkpoint_dir = dir_.string();
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/2);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  ASSERT_TRUE(engine->Checkpoint().ok());
  const cluster::Assignment assign_before = engine->CurrentAssignment();
  engine.reset();

  // Lose the solver checkpoint between the pair: recovery degrades to a
  // canonical warm-start rebuild from the engine file's saved assignment.
  ASSERT_TRUE(fs::remove(dir_ / "online-solver.fkmc"));
  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> twin = std::move(recovered).ValueOrDie();
  EXPECT_EQ(twin->CurrentAssignment(), assign_before);
  ExpectOracleEquality(twin.get());
}

// Recover rebuilds the maintained counts and sums from the checkpointed
// rows: one admit after recovery must leave the from-scratch distribution.
TEST_F(OnlineRecoveryTest, RecoverThenAdmitMatchesScratchDistribution) {
  const SeededWorld world = MakeCancellingWorld(43);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e300;
  options.checkpoint_dir = dir_.string();
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/4);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  Rng rng(47);
  const int dim = static_cast<int>(world.points.cols());
  data::SensitiveView sv = MakeAdmitView(world.sensitive, 5, &rng);
  sv.numeric[0].values = {-1e16, 0.1, 1e16, 3.0, 0.7};
  ASSERT_TRUE(engine->Admit(MakeBlobs(1, 5, dim, &rng), &sv).ok());
  const std::vector<uint64_t> live = engine->LiveIds();
  ASSERT_TRUE(engine->Retire({live[1], live[6]}).ok());
  ASSERT_TRUE(engine->Checkpoint().ok());
  engine.reset();

  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> twin = std::move(recovered).ValueOrDie();
  data::SensitiveView one = MakeAdmitView(world.sensitive, 1, &rng);
  one.numeric[0].values = {0.3};
  ASSERT_TRUE(twin->Admit(MakeBlobs(1, 1, dim, &rng), &one).ok());

  const data::SensitiveView live_view = twin->SurvivingSensitive();
  const data::SensitiveView scratch = ScratchDistribution(live_view);
  for (size_t a = 0; a < live_view.categorical.size(); ++a) {
    EXPECT_EQ(live_view.categorical[a].dataset_fractions,
              scratch.categorical[a].dataset_fractions)
        << "attribute " << a;
  }
  for (size_t a = 0; a < live_view.numeric.size(); ++a) {
    EXPECT_TRUE(SameBits(live_view.numeric[a].dataset_mean,
                         scratch.numeric[a].dataset_mean))
        << live_view.numeric[a].dataset_mean << " vs "
        << scratch.numeric[a].dataset_mean;
  }
}

// The engine file's "online" fault scope: a torn or short engine file is
// silent at Checkpoint() and caught by Recover's CRCs.
TEST_F(OnlineRecoveryTest, TornOrShortEngineFileRecoversAsDataLoss) {
  const SeededWorld world = MakeSeededWorld(53);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.checkpoint_dir = dir_.string();
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/5);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  for (const char* arming :
       {"online.rename=torn", "online.write=short,keep=64"}) {
    SCOPED_TRACE(arming);
    ASSERT_TRUE(fault::ArmFromString(arming).ok());
    ASSERT_TRUE(engine->Checkpoint().ok());
    fault::DisarmAll();
    EXPECT_EQ(OnlineFairKM::Recover(options).status().code(),
              StatusCode::kDataLoss);
    EXPECT_FALSE(fs::exists(dir_ / "online-engine.fkol.tmp"));
  }
}

// A failed engine-file fsync fails Checkpoint() and publishes nothing: the
// previous engine file still recovers to the engine it recorded.
TEST_F(OnlineRecoveryTest, FailedEngineFsyncKeepsThePreviousEngineFile) {
  const SeededWorld world = MakeSeededWorld(59);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  options.checkpoint_dir = dir_.string();
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/6);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  ASSERT_TRUE(engine->Checkpoint().ok());
  const OnlineStats before = engine->Stats();
  const std::vector<uint64_t> ids_before = engine->LiveIds();
  const cluster::Assignment assign_before = engine->CurrentAssignment();

  Rng rng(61);
  const int dim = static_cast<int>(world.points.cols());
  const data::Matrix pts = MakeBlobs(1, 4, dim, &rng);
  const data::SensitiveView sv = MakeAdmitView(world.sensitive, 4, &rng);
  ASSERT_TRUE(engine->Admit(pts, &sv).ok());
  ASSERT_TRUE(fault::ArmFromString("online.fsync=error").ok());
  EXPECT_EQ(engine->Checkpoint().code(), StatusCode::kIOError);
  fault::DisarmAll();
  engine.reset();

  auto recovered = OnlineFairKM::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::unique_ptr<OnlineFairKM> twin = std::move(recovered).ValueOrDie();
  EXPECT_EQ(twin->LiveIds(), ids_before);
  EXPECT_EQ(twin->CurrentAssignment(), assign_before);
  EXPECT_EQ(twin->Stats().admitted, before.admitted);
  EXPECT_EQ(twin->Stats().live_rows, before.live_rows);
}

TEST_F(OnlineRecoveryTest, MissingEngineFileIsAnError) {
  OnlineOptions options;
  options.solver.k = 3;
  options.checkpoint_dir = (dir_ / "never_written").string();
  auto recovered = OnlineFairKM::Recover(options);
  EXPECT_FALSE(recovered.ok());
}

OnlineOptions QuietOptions(const SeededWorld& world) {
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  // The cancelling values put the fairness term near 1e30: keep the drift
  // monitor out of these tests.
  options.drift.regression_tolerance = 1e300;
  return options;
}

// Values whose left-to-right sum depends on the order they arrive in.
const std::vector<double> kCancellingBatch = {1e16, 1.0,   -1e16, 0.1,
                                              0.7,  -0.3,  3e-17, 2.5};

// The dataset mean is the exactly rounded mean of the live values: admitting
// the same rows in another order leaves the same double, to the bit.
TEST(OnlineNumericMean, AdmitOrderDoesNotChangeTheMean) {
  const SeededWorld world = MakeCancellingWorld(83);
  const size_t rows = kCancellingBatch.size();
  Rng rng(89);
  const data::Matrix points =
      MakeBlobs(1, static_cast<int>(rows), static_cast<int>(world.points.cols()),
                &rng);
  data::SensitiveView view = MakeAdmitView(world.sensitive, rows, &rng);
  view.numeric[0].values = kCancellingBatch;
  // The same rows, last first.
  data::Matrix reversed(rows, points.cols());
  data::SensitiveView reversed_view = view;
  for (size_t i = 0; i < rows; ++i) {
    std::copy(points.Row(rows - 1 - i), points.Row(rows - 1 - i) + points.cols(),
              reversed.Row(i));
  }
  for (auto& attr : reversed_view.categorical) {
    std::reverse(attr.codes.begin(), attr.codes.end());
  }
  for (auto& attr : reversed_view.numeric) {
    std::reverse(attr.values.begin(), attr.values.end());
  }

  double means[2];
  for (int order = 0; order < 2; ++order) {
    auto created = OnlineFairKM::Create(world.points, world.sensitive,
                                        QuietOptions(world), /*seed=*/2);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
    ASSERT_TRUE(order == 0 ? engine->Admit(points, &view).ok()
                           : engine->Admit(reversed, &reversed_view).ok());
    means[order] = engine->SurvivingSensitive().numeric[0].dataset_mean;
  }
  EXPECT_TRUE(SameBits(means[0], means[1])) << means[0] << " vs " << means[1];

  std::vector<double> all = world.sensitive.numeric[0].values;
  all.insert(all.end(), kCancellingBatch.begin(), kCancellingBatch.end());
  Rng shuffle(91);
  const double expected = ScratchMean(all, &shuffle);
  EXPECT_TRUE(SameBits(means[0], expected)) << means[0] << " vs " << expected;
}

// Admitting rows and retiring the same rows leaves the mean the initial rows
// had, to the bit.
TEST(OnlineNumericMean, AdmitThenRetireRestoresTheExactMean) {
  const SeededWorld world = MakeCancellingWorld(97);
  auto created = OnlineFairKM::Create(world.points, world.sensitive,
                                      QuietOptions(world), /*seed=*/3);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  const size_t rows = kCancellingBatch.size();
  Rng rng(101);
  data::SensitiveView view = MakeAdmitView(world.sensitive, rows, &rng);
  view.numeric[0].values = kCancellingBatch;
  auto ids = engine->Admit(
      MakeBlobs(1, static_cast<int>(rows),
                static_cast<int>(world.points.cols()), &rng),
      &view);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_TRUE(engine->Retire(ids.ValueOrDie()).ok());
  const double mean = engine->SurvivingSensitive().numeric[0].dataset_mean;
  EXPECT_TRUE(SameBits(mean, world.sensitive.numeric[0].dataset_mean))
      << mean << " vs " << world.sensitive.numeric[0].dataset_mean;
}

// The pruner's tables are resized in place on every admit and retire. Under
// a churn window that replaces the initial rows twice over, with drift
// re-sweeps in between and a forced one at the end, the pruned engine must
// take exactly the unpruned engine's assignments and objectives.
TEST(OnlinePruning, ChurnWindowPrunedMatchesUnpruned) {
  ::unsetenv("FAIRKM_DISABLE_PRUNING");  // Both sides of the comparison.
  const SeededWorld world = MakeSeededWorld(107);
  const size_t initial = world.points.rows();
  const int dim = static_cast<int>(world.points.cols());
  constexpr size_t kBatch = 6;
  for (const size_t minibatch : {size_t{0}, size_t{16}}) {
    SCOPED_TRACE(::testing::Message() << "minibatch " << minibatch);
    std::unique_ptr<OnlineFairKM> engines[2];
    for (int pruned = 0; pruned < 2; ++pruned) {
      OnlineOptions options;
      options.solver.k = world.k;
      options.solver.lambda = 60.0;
      options.solver.minibatch_size = static_cast<int>(minibatch);
      options.solver.enable_pruning = pruned == 1;
      options.drift.regression_tolerance = 0.02;
      options.drift.resweep_max_sweeps = 3;
      auto created = OnlineFairKM::Create(world.points, world.sensitive,
                                          options, /*seed=*/5);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      engines[pruned] = std::move(created).ValueOrDie();
    }
    const auto expect_same = [&](const char* when) {
      EXPECT_EQ(engines[0]->CurrentAssignment(),
                engines[1]->CurrentAssignment())
          << when;
      const OnlineStats a = engines[0]->Stats();
      const OnlineStats b = engines[1]->Stats();
      EXPECT_TRUE(SameBits(a.last_objective, b.last_objective))
          << when << ": " << a.last_objective << " vs " << b.last_objective;
      EXPECT_EQ(a.resweeps, b.resweeps) << when;
    };
    const std::vector<uint64_t> live = engines[0]->LiveIds();
    std::deque<uint64_t> window(live.begin(), live.end());
    Rng rng(113);
    size_t retired = 0;
    while (retired < 2 * initial) {
      const data::Matrix points = MakeBlobs(1, kBatch, dim, &rng);
      const data::SensitiveView view =
          MakeAdmitView(world.sensitive, kBatch, &rng);
      std::vector<uint64_t> admitted[2];
      for (int e = 0; e < 2; ++e) {
        auto ids = engines[e]->Admit(points, &view);
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        admitted[e] = ids.ValueOrDie();
      }
      ASSERT_EQ(admitted[0], admitted[1]);
      window.insert(window.end(), admitted[0].begin(), admitted[0].end());
      const std::vector<uint64_t> oldest(window.begin(),
                                         window.begin() + kBatch);
      window.erase(window.begin(), window.begin() + kBatch);
      for (int e = 0; e < 2; ++e) ASSERT_TRUE(engines[e]->Retire(oldest).ok());
      retired += kBatch;
      expect_same("after a churn step");
    }
    for (int e = 0; e < 2; ++e) ASSERT_TRUE(engines[e]->TriggerResweep().ok());
    expect_same("after the forced re-sweep");
    EXPECT_GT(engines[0]->Stats().resweeps, 1u) << "churn must re-sweep";
    EXPECT_GT(
        engines[1]->solver().CurrentResult().ValueOrDie().pruned_candidates,
        0u);
    EXPECT_EQ(
        engines[0]->solver().CurrentResult().ValueOrDie().pruned_candidates,
        0u);
  }
}

TEST(OnlineValidation, AdmitRejectsBadBatchesWithoutStateChange) {
  const SeededWorld world = MakeSeededWorld(53);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/4);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  const OnlineStats before = engine->Stats();
  Rng rng(61);

  // Wrong feature width.
  {
    const data::Matrix narrow = MakeBlobs(1, 2, 2, &rng);
    const data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    auto r = engine->Admit(narrow, &sv);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Sensitive view required but missing.
  {
    const data::Matrix pts =
        MakeBlobs(1, 2, static_cast<int>(world.points.cols()), &rng);
    auto r = engine->Admit(pts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // Code outside the trained cardinality.
  {
    const data::Matrix pts =
        MakeBlobs(1, 2, static_cast<int>(world.points.cols()), &rng);
    data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    sv.categorical[0].codes[1] = sv.categorical[0].cardinality + 5;
    auto r = engine->Admit(pts, &sv);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // The cases the solver's and the serve tier's request tests check too;
  // Admit validates through the same function, before the first row lands.
  const auto expect_rejected = [&](const char* what, data::Matrix pts,
                                   data::SensitiveView sv) {
    auto r = engine->Admit(pts, &sv);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
  };
  const int dim = static_cast<int>(world.points.cols());
  ASSERT_GE(world.sensitive.categorical.size(), 2u);
  ASSERT_GE(world.sensitive.numeric.size(), 1u);
  {
    data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    sv.categorical[1].codes.pop_back();
    expect_rejected("ragged second categorical attribute",
                    MakeBlobs(1, 2, dim, &rng), sv);
  }
  {
    data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    sv.numeric[0].values.pop_back();
    expect_rejected("ragged numeric attribute", MakeBlobs(1, 2, dim, &rng), sv);
  }
  {
    data::Matrix pts = MakeBlobs(1, 2, dim, &rng);
    pts.At(1, 0) = std::numeric_limits<double>::quiet_NaN();
    expect_rejected("NaN coordinate", pts,
                    MakeAdmitView(world.sensitive, 2, &rng));
  }
  {
    data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    sv.numeric[0].values[1] = std::numeric_limits<double>::infinity();
    expect_rejected("non-finite numeric value", MakeBlobs(1, 2, dim, &rng),
                    sv);
  }
  {
    data::SensitiveView sv = MakeAdmitView(world.sensitive, 2, &rng);
    sv.categorical.pop_back();
    expect_rejected("mismatched attribute count", MakeBlobs(1, 2, dim, &rng),
                    sv);
  }
  const OnlineStats after = engine->Stats();
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.live_rows, before.live_rows);
}

TEST(OnlineValidation, AdmitPlacesEachRowWhereSolverAssignWould) {
  const SeededWorld world = MakeSeededWorld(67);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/8);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  Rng rng(71);

  // One-row admits score against the live state exactly as the solver's
  // out-of-sample Assign does just before the admit, so each admitted row
  // lands in the cluster Assign returned.
  for (int step = 0; step < 24; ++step) {
    const data::Matrix row =
        MakeBlobs(1, 1, static_cast<int>(world.points.cols()), &rng);
    const data::SensitiveView sv = MakeAdmitView(world.sensitive, 1, &rng);
    auto expected = engine->solver().Assign(row, sv);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto ids = engine->Admit(row, &sv);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(engine->CurrentAssignment().back(),
              expected.ValueOrDie().front())
        << "step " << step;
  }
  EXPECT_EQ(engine->Stats().resweeps, 0u);
}

TEST(OnlineValidation, RetireRejectsBadBatchesWholesale) {
  const SeededWorld world = MakeSeededWorld(59);
  OnlineOptions options;
  options.solver.k = world.k;
  options.solver.lambda = 60.0;
  options.drift.regression_tolerance = 1e12;
  auto created =
      OnlineFairKM::Create(world.points, world.sensitive, options, /*seed=*/6);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<OnlineFairKM> engine = std::move(created).ValueOrDie();
  const std::vector<uint64_t> live = engine->LiveIds();

  // Unknown id: the whole batch (including the valid id) is rejected.
  {
    const Status st = engine->Retire({live[0], 999999});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
  }
  // Duplicate id.
  {
    const Status st = engine->Retire({live[1], live[1]});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // Retiring every live point.
  {
    const Status st = engine->Retire(live);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine->Stats().retired, 0u);
  EXPECT_EQ(engine->LiveIds(), live);

  // A retired id is then NotFound (no id reuse).
  ASSERT_TRUE(engine->Retire({live[4]}).ok());
  const Status st = engine->Retire({live[4]});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace online
}  // namespace fairkm
