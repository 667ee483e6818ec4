// Durable solver checkpoints: field-exact round-trips through the on-disk
// format, corruption (torn/truncated/bit-flipped files, primary lengths
// that contradict the file's own n/k/stride) surfacing as kDataLoss,
// checkpoints of the removed parallel sweep mode refused as
// kInvalidArgument, auto-checkpointing Run budgets, newest-valid-wins
// resume with fallback past corrupt files, version-1 files (which still
// carry derived state) loading with that state recomputed, and a seeded
// mutation sweep over the state section — all under deterministic fault
// injection, with zero crashes.

#include "core/checkpoint_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/fairkm.h"
#include "core/solver.h"
#include "common/rng.h"
#include "testlib/brute_force.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace core {
namespace {

namespace fs = std::filesystem;

using testutil::MakeSeededWorld;
using testutil::SeededWorld;

FairKMOptions BaseOptions() {
  FairKMOptions options;
  options.k = 3;
  options.lambda = 60.0;
  options.max_iterations = 12;
  options.minibatch_size = 16;
  return options;
}

class CheckpointIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fairkm_ckpt_test_" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    fault::DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// Field-exact equality of two checkpoints (double comparisons are exact:
// the format stores raw 8-byte images).
void ExpectCheckpointsEqual(const SolverCheckpoint& a,
                            const SolverCheckpoint& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.batch_size, b.batch_size);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.sweeps_completed, b.sweeps_completed);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.next_point, b.next_point);
  EXPECT_EQ(a.moves_in_sweep, b.moves_in_sweep);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  EXPECT_EQ(a.pruned_stage1_candidates, b.pruned_stage1_candidates);
  EXPECT_EQ(a.sweep_seconds, b.sweep_seconds);

  EXPECT_EQ(a.state.assignment, b.state.assignment);
  EXPECT_TRUE(a.state.sums == b.state.sums);
  EXPECT_EQ(a.state.num_sums, b.state.num_sums);
  EXPECT_EQ(a.state.use_snapshot, b.state.use_snapshot);
  EXPECT_EQ(a.state.proto_counts, b.state.proto_counts);
  EXPECT_TRUE(a.state.proto_sums == b.state.proto_sums);
  EXPECT_EQ(a.state.track_bounds, b.state.track_bounds);
  EXPECT_EQ(a.state.drift, b.state.drift);
  EXPECT_EQ(a.state.max_step_sum, b.state.max_step_sum);

  EXPECT_EQ(a.has_pruner, b.has_pruner);
  if (a.has_pruner && b.has_pruner) {
    EXPECT_EQ(a.pruner.lb0, b.pruner.lb0);
    EXPECT_EQ(a.pruner.drift_ref, b.pruner.drift_ref);
    EXPECT_EQ(a.pruner.lbmin0, b.pruner.lbmin0);
    EXPECT_EQ(a.pruner.max_drift_ref, b.pruner.max_drift_ref);
    EXPECT_EQ(a.pruner.fresh, b.pruner.fresh);
  }
}

// The live state after a restore against a from-scratch recount under its
// own assignment: sizes and categorical counts exactly; numeric sums,
// centroids and both objective terms — scratch and cached, so the norm
// caches and the U2 moments are covered — to `tolerance`.
::testing::AssertionResult StateMatchesRecount(const FairKMState& state,
                                               const SeededWorld& world,
                                               double tolerance) {
  const testutil::BruteForceAggregates want = testutil::RecomputeAggregates(
      world.points, world.sensitive, state.assignment(), state.k(),
      state.config());
  const FairnessMomentTables& moments = state.fairness_moments();
  if (moments.cat_counts != want.cat_counts) {
    return ::testing::AssertionFailure() << "categorical counts differ";
  }
  for (size_t a = 0; a < want.num_sums.size(); ++a) {
    for (size_t c = 0; c < want.num_sums[a].size(); ++c) {
      const double expect = want.num_sums[a][c];
      if (std::fabs(moments.num_sums[a][c] - expect) >
          tolerance * std::max(1.0, std::fabs(expect))) {
        return ::testing::AssertionFailure()
               << "numeric sum [" << a << "][" << c << "] differs";
      }
    }
  }
  const auto close = [tolerance](double got, double expect) {
    return std::fabs(got - expect) <=
           tolerance * std::max(1.0, std::fabs(expect));
  };
  if (!close(state.KMeansTermCached(), want.kmeans_term)) {
    return ::testing::AssertionFailure()
           << "cached K-Means term " << state.KMeansTermCached()
           << " != recount " << want.kmeans_term;
  }
  if (!close(state.FairnessTermCached(), want.fairness_term)) {
    return ::testing::AssertionFailure()
           << "cached fairness term " << state.FairnessTermCached()
           << " != recount " << want.fairness_term;
  }
  return testutil::StateMatchesBruteForce(state, world.points, world.sensitive,
                                          state.config(), tolerance);
}

SolverCheckpoint TrainedCheckpoint(const SeededWorld& world,
                                   const FairKMOptions& options,
                                   int sweeps) {
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_TRUE(solver.Init(uint64_t{11}).ok());
  RunBudget leg;
  leg.max_sweeps = sweeps;
  EXPECT_TRUE(solver.Run(leg).ok());
  return solver.Snapshot().ValueOrDie();
}

TEST_F(CheckpointIoTest, RoundTripIsFieldExact) {
  const SeededWorld world = MakeSeededWorld(91);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 3);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  Result<SolverCheckpoint> back = ReadSolverCheckpoint(path);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectCheckpointsEqual(cp, back.ValueOrDie());

  // The derived state is not in the file: a restore recomputes it, and it
  // must equal a from-scratch recount under the restored assignment.
  FairKMSolver restored =
      FairKMSolver::Create(&world.points, &world.sensitive, BaseOptions())
          .ValueOrDie();
  ASSERT_TRUE(restored.Restore(back.ValueOrDie()).ok());
  EXPECT_TRUE(StateMatchesRecount(restored.state(), world, 1e-9));
}

TEST_F(CheckpointIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadSolverCheckpoint(Path("absent.fkmc")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, TruncatedAndBitFlippedFilesAreDataLoss) {
  const SeededWorld world = MakeSeededWorld(92);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  std::string raw;
  ASSERT_TRUE(io::ReadFile(path, &raw, "test").ok());
  ASSERT_GT(raw.size(), 64u);

  // A spread of truncation points, including mid-header and mid-payload.
  for (size_t keep :
       {size_t{0}, size_t{3}, size_t{16}, size_t{40}, raw.size() / 2,
        raw.size() - 1}) {
    ASSERT_TRUE(io::AtomicWriteFile(path, raw.substr(0, keep), "test").ok());
    EXPECT_EQ(ReadSolverCheckpoint(path).status().code(),
              StatusCode::kDataLoss)
        << "truncated to " << keep;
  }

  // A spread of single-bit flips across the file.
  for (size_t pos : {size_t{0}, size_t{9}, size_t{17}, size_t{33},
                     raw.size() / 2, raw.size() - 2}) {
    std::string mutated = raw;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x04);
    ASSERT_TRUE(io::AtomicWriteFile(path, mutated, "test").ok());
    Status st = ReadSolverCheckpoint(path).status();
    EXPECT_FALSE(st.ok()) << "bit flip at " << pos;
  }
}

TEST_F(CheckpointIoTest, InjectedTornRenameReadsAsDataLoss) {
  const SeededWorld world = MakeSeededWorld(93);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");

  ASSERT_TRUE(fault::ArmFromString("checkpoint.rename=torn").ok());
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());  // silently torn
  fault::DisarmAll();
  EXPECT_EQ(ReadSolverCheckpoint(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointIoTest, InjectedShortWriteReadsAsDataLoss) {
  const SeededWorld world = MakeSeededWorld(93);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");

  ASSERT_TRUE(fault::ArmFromString("checkpoint.write=short,keep=100").ok());
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  fault::DisarmAll();
  EXPECT_EQ(ReadSolverCheckpoint(path).status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointIoTest, InjectedIOErrorsSurfaceWithoutCorruptingOldFile) {
  const SeededWorld world = MakeSeededWorld(94);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());

  for (const char* point :
       {"checkpoint.open", "checkpoint.write", "checkpoint.fsync",
        "checkpoint.rename"}) {
    ASSERT_TRUE(fault::ArmFromString(std::string(point) + "=error").ok());
    EXPECT_EQ(WriteSolverCheckpoint(path, cp).code(), StatusCode::kIOError)
        << point;
    fault::DisarmAll();
    // The previous good file survives every failed replacement attempt.
    EXPECT_TRUE(ReadSolverCheckpoint(path).ok()) << point;
  }

  ASSERT_TRUE(fault::ArmFromString("checkpoint.read=error").ok());
  EXPECT_EQ(ReadSolverCheckpoint(path).status().code(), StatusCode::kIOError);
}

TEST_F(CheckpointIoTest, FileNamesSortChronologically) {
  EXPECT_EQ(CheckpointFileName(7), "ckpt-00000007.fkmc");
  EXPECT_LT(CheckpointFileName(9), CheckpointFileName(10));
  EXPECT_LT(CheckpointFileName(99), CheckpointFileName(100));
}

TEST_F(CheckpointIoTest, ListCheckpointFilesFiltersAndSorts) {
  ASSERT_TRUE(io::AtomicWriteFile(Path(CheckpointFileName(2)), "x", "t").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path(CheckpointFileName(1)), "x", "t").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path("notes.txt"), "x", "t").ok());
  ASSERT_TRUE(io::AtomicWriteFile(Path("ckpt-junk.fkmc"), "x", "t").ok());
  Result<std::vector<std::string>> names = ListCheckpointFiles(dir_.string());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie(),
            (std::vector<std::string>{CheckpointFileName(1),
                                      CheckpointFileName(2)}));
  EXPECT_EQ(ListCheckpointFiles(Path("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, AutoCheckpointingRunWritesAndPrunes) {
  const SeededWorld world = MakeSeededWorld(95);
  FairKMOptions options = BaseOptions();
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{11}).ok());

  RunBudget budget;
  budget.checkpoint_dir = dir_.string();
  budget.checkpoint_every = 1;
  budget.checkpoint_keep = 2;
  ASSERT_TRUE(solver.Run(budget).ok());
  ASSERT_GT(solver.sweeps_completed(), 2);

  // Pruning kept exactly checkpoint_keep files, the newest ones.
  std::vector<std::string> names =
      ListCheckpointFiles(dir_.string()).ValueOrDie();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names.back(), CheckpointFileName(solver.sweeps_completed()));

  // The newest file restores to the finished state.
  FairKMSolver restored =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(restored.LoadCheckpoint(dir_.string() + "/" + names.back()).ok());
  EXPECT_EQ(restored.sweeps_completed(), solver.sweeps_completed());
  EXPECT_EQ(restored.converged(), solver.converged());
  EXPECT_EQ(restored.assignment(), solver.assignment());
}

TEST_F(CheckpointIoTest, QuarantineRenamesAsideAndListSkips) {
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(1)), "good-enough", "t")
          .ok());
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(2)), "garbage", "t").ok());

  ASSERT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(2))).ok());
  EXPECT_FALSE(fs::exists(Path(CheckpointFileName(2))));
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(2)) + ".corrupt"));

  // Quarantined frames are invisible to resume and retention alike.
  const auto names = ListCheckpointFiles(dir_.string()).ValueOrDie();
  EXPECT_EQ(names, std::vector<std::string>{CheckpointFileName(1)});

  // Idempotent: the original being already gone is OK, and a second
  // corrupt frame of the same name replaces the old quarantine file.
  EXPECT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(2))).ok());
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(2)), "garbage2", "t").ok());
  EXPECT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(2))).ok());
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(2)) + ".corrupt"));
}

TEST_F(CheckpointIoTest, PruneKeepsNewestAndNeverTouchesQuarantine) {
  for (int sweep : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(
        io::AtomicWriteFile(Path(CheckpointFileName(sweep)), "x", "t").ok());
  }
  ASSERT_TRUE(QuarantineCheckpoint(Path(CheckpointFileName(3))).ok());

  ASSERT_TRUE(PruneCheckpointDir(dir_.string(), 2).ok());
  const auto names = ListCheckpointFiles(dir_.string()).ValueOrDie();
  EXPECT_EQ(names, (std::vector<std::string>{CheckpointFileName(4),
                                             CheckpointFileName(5)}));
  // The quarantined frame survives pruning: it is post-mortem evidence,
  // not retention inventory.
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(3)) + ".corrupt"));
}

TEST_F(CheckpointIoTest, ResumeQuarantinesTheCorruptFramesItSkips) {
  const SeededWorld world = MakeSeededWorld(95);
  FairKMOptions options = BaseOptions();
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(7)), "garbage", "t").ok());
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(fs::exists(Path(CheckpointFileName(7))));
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(7)) + ".corrupt"));
  // The directory now lists no checkpoints, so a re-resume is a clean
  // kNotFound instead of re-parsing the same torn frame forever.
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, ResumeFallsBackPastCorruptNewestCheckpoint) {
  const SeededWorld world = MakeSeededWorld(96);
  FairKMOptions options = BaseOptions();

  // Reference: the uninterrupted trajectory.
  FairKMSolver reference =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(reference.Init(uint64_t{11}).ok());
  ASSERT_TRUE(reference.Run().ok());

  // Save checkpoints after sweeps 2 and 3, then tear the newest: the model
  // of a crash mid-write on the last interval.
  FairKMSolver trainer =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(trainer.Init(uint64_t{11}).ok());
  RunBudget two;
  two.max_sweeps = 2;
  ASSERT_TRUE(trainer.Run(two).ok());
  ASSERT_TRUE(trainer.SaveCheckpoint(Path(CheckpointFileName(2))).ok());
  RunBudget one;
  one.max_sweeps = 1;
  ASSERT_TRUE(trainer.Run(one).ok());
  ASSERT_TRUE(fault::ArmFromString("checkpoint.rename=torn").ok());
  ASSERT_TRUE(trainer.SaveCheckpoint(Path(CheckpointFileName(3))).ok());
  fault::DisarmAll();

  // Resume picks the torn sweep-3 file first, rejects it with kDataLoss
  // internally, and falls back to the good sweep-2 checkpoint.
  FairKMSolver resumed =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(resumed.ResumeFromCheckpointDir(dir_.string()).ok());
  EXPECT_EQ(resumed.sweeps_completed(), 2);

  // Continuing from the fallback replays the uninterrupted trajectory.
  ASSERT_TRUE(resumed.Run().ok());
  const FairKMResult a = reference.CurrentResult().ValueOrDie();
  const FairKMResult b = resumed.CurrentResult().ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST_F(CheckpointIoTest, ResumeWithAllCheckpointsCorruptIsDataLoss) {
  const SeededWorld world = MakeSeededWorld(97);
  FairKMOptions options = BaseOptions();
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(1)), "garbage", "t").ok());
  ASSERT_TRUE(
      io::AtomicWriteFile(Path(CheckpointFileName(2)), "garbage", "t").ok());
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(solver.initialized());

  EXPECT_EQ(solver.ResumeFromCheckpointDir(Path("missing")).code(),
            StatusCode::kNotFound);
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  EXPECT_EQ(solver.ResumeFromCheckpointDir(dir_.string()).code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointIoTest, RunResumeBudgetRestoresNewestValidCheckpoint) {
  const SeededWorld world = MakeSeededWorld(98);
  FairKMOptions options = BaseOptions();

  FairKMSolver reference =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(reference.Init(uint64_t{21}).ok());
  ASSERT_TRUE(reference.Run().ok());

  // Leg 1: run two sweeps with auto-checkpointing.
  RunBudget leg;
  leg.checkpoint_dir = dir_.string();
  leg.checkpoint_every = 1;
  leg.max_sweeps = 2;
  {
    FairKMSolver first =
        FairKMSolver::Create(&world.points, &world.sensitive, options)
            .ValueOrDie();
    ASSERT_TRUE(first.Init(uint64_t{21}).ok());
    ASSERT_TRUE(first.Run(leg).ok());
  }  // "crash": the solver dies with its in-memory state

  // Leg 2: a fresh process resumes from disk via the budget and finishes.
  FairKMSolver second =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  RunBudget resume_leg;
  resume_leg.checkpoint_dir = dir_.string();
  resume_leg.checkpoint_every = 1;
  resume_leg.resume = true;
  ASSERT_TRUE(second.Run(resume_leg).ok());  // no Init: state comes from disk

  const FairKMResult a = reference.CurrentResult().ValueOrDie();
  const FairKMResult b = second.CurrentResult().ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
}

// A pruned mini-batch run saved to disk in the middle of a sweep and
// restored into a fresh solver continues on the uninterrupted run's exact
// trajectory. The file holds no derived state, so this also pins the
// counts, moments, lane mirrors and bound tables recomputed on restore.
TEST_F(CheckpointIoTest, PrunedMiniBatchResumedMidSweepIsBitIdentical) {
  testutil::WorldSpec spec;
  spec.blobs = 4;
  spec.per_blob = 40;
  spec.k = 5;
  spec.categorical_attrs = 3;
  spec.numeric_attrs = 1;
  const SeededWorld world = MakeSeededWorld(123, spec);
  // This test is about pruned runs, so it must see pruning even under the
  // CI job that exports FAIRKM_DISABLE_PRUNING=1 for the rest of the suite.
  ::unsetenv("FAIRKM_DISABLE_PRUNING");
  FairKMOptions options;
  options.k = world.k;
  options.max_iterations = 10;
  options.minibatch_size = 16;
  options.enable_pruning = true;

  FairKMSolver reference =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(reference.Init(uint64_t{5}).ok());
  ASSERT_TRUE(reference.Run().ok());
  const FairKMResult a = reference.CurrentResult().ValueOrDie();
  ASSERT_TRUE(a.pruning_enabled);
  ASSERT_GT(a.pruned_candidates, 0u);

  // Stop mid-sweep: the third sweep, after its fourth mini-batch.
  const std::string path = Path("mid-sweep.fkmc");
  {
    FairKMSolver first =
        FairKMSolver::Create(&world.points, &world.sensitive, options)
            .ValueOrDie();
    ASSERT_TRUE(first.Init(uint64_t{5}).ok());
    const auto stop_mid_sweep = [](const SweepProgress& p) {
      return !(p.sweep == 3 && p.points_processed == 64);
    };
    Result<RunStop> stop = first.Run(RunBudget{}, stop_mid_sweep);
    ASSERT_TRUE(stop.ok()) << stop.status();
    ASSERT_EQ(stop.ValueOrDie(), RunStop::kCancelled);
    ASSERT_TRUE(first.SaveCheckpoint(path).ok());
  }
  FairKMSolver second =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(second.LoadCheckpoint(path).ok());  // no Init
  ASSERT_TRUE(second.Run().ok());
  const FairKMResult b = second.CurrentResult().ValueOrDie();
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  EXPECT_EQ(a.pruned_stage1_candidates, b.pruned_stage1_candidates);
  EXPECT_EQ(a.pruned_stage2_candidates, b.pruned_stage2_candidates);
}

// The pruning-stage split travels in an optional section. A file without it
// (written before the split existed) still loads, its pruned total intact
// and counted under stage 2.
TEST_F(CheckpointIoTest, FileWithoutPruneStageSectionLoadsAsAllStage2) {
  ::unsetenv("FAIRKM_DISABLE_PRUNING");
  const SeededWorld world = MakeSeededWorld(93);
  FairKMOptions options = BaseOptions();
  options.lambda = -1.0;  // The auto lambda prunes on this world.
  const SolverCheckpoint cp = TrainedCheckpoint(world, options, 4);
  ASSERT_TRUE(cp.has_pruner);
  ASSERT_GT(cp.pruned_candidates, 0u);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());

  std::string bytes;
  ASSERT_TRUE(io::ReadFile(path, &bytes, "test").ok());
  uint32_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  io::SectionFile file =
      io::ReadSectionFile(path, magic, version, "test").ValueOrDie();
  constexpr uint32_t kPruneStagesTag = 4;
  ASSERT_EQ(file.sections.size(), 4u);
  ASSERT_EQ(file.sections.back().tag, kPruneStagesTag);
  file.sections.pop_back();
  ASSERT_TRUE(
      io::WriteSectionFile(path, magic, version, file.sections, "test").ok());

  Result<SolverCheckpoint> back = ReadSolverCheckpoint(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.ValueOrDie().pruned_candidates, cp.pruned_candidates);
  EXPECT_EQ(back.ValueOrDie().pruned_stage1_candidates, 0u);

  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.LoadCheckpoint(path).ok());
  const FairKMResult result = solver.CurrentResult().ValueOrDie();
  EXPECT_EQ(result.pruned_candidates, cp.pruned_candidates);
  EXPECT_EQ(result.pruned_stage1_candidates, 0u);
  EXPECT_EQ(result.pruned_stage2_candidates, cp.pruned_candidates);
}

TEST_F(CheckpointIoTest, AutoCheckpointWriteFailureSurfacesCleanly) {
  const SeededWorld world = MakeSeededWorld(99);
  FairKMOptions options = BaseOptions();
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  ASSERT_TRUE(solver.Init(uint64_t{5}).ok());

  ASSERT_TRUE(fault::ArmFromString("checkpoint.write=error").ok());
  RunBudget budget;
  budget.checkpoint_dir = dir_.string();
  budget.checkpoint_every = 1;
  Result<RunStop> r = solver.Run(budget);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  fault::DisarmAll();

  // The solver is still consistent and can finish without checkpointing.
  ASSERT_TRUE(solver.Run().ok());
  EXPECT_TRUE(solver.CurrentResult().ok());
}

TEST_F(CheckpointIoTest, LoadIntoMismatchedSolverIsInvalidArgument) {
  const SeededWorld world = MakeSeededWorld(90);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());

  FairKMOptions other = BaseOptions();
  other.k = 4;
  FairKMSolver mismatched =
      FairKMSolver::Create(&world.points, &world.sensitive, other).ValueOrDie();
  EXPECT_EQ(mismatched.LoadCheckpoint(path).code(),
            StatusCode::kInvalidArgument);
}

// The meta section keeps the byte the removed parallel sweep mode used to
// set; writers emit 0. A file carrying 1 there is intact but unloadable, so
// it must read as kInvalidArgument — not as corruption, and not silently.
TEST_F(CheckpointIoTest, RemovedParallelSweepByteIsInvalidArgument) {
  const SeededWorld world = MakeSeededWorld(92);
  const SolverCheckpoint cp = TrainedCheckpoint(world, BaseOptions(), 2);
  const std::string path = Path("ckpt.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());

  // Re-frame the file with the byte set: the header's magic and version
  // come from the file itself, and the container recomputes every CRC.
  std::string bytes;
  ASSERT_TRUE(io::ReadFile(path, &bytes, "test").ok());
  ASSERT_GE(bytes.size(), 8u);
  uint32_t magic = 0;
  uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  io::SectionFile file =
      io::ReadSectionFile(path, magic, version, "test").ValueOrDie();
  ASSERT_FALSE(file.sections.empty());
  io::Section& meta = file.sections.front();  // num_rows:u64 k:u32 batch:u64
  constexpr size_t kParallelByte = 8 + 4 + 8;
  ASSERT_GT(meta.payload.size(), kParallelByte);
  ASSERT_EQ(meta.payload[kParallelByte], '\0');
  meta.payload[kParallelByte] = '\1';
  ASSERT_TRUE(
      io::WriteSectionFile(path, magic, version, file.sections, "test").ok());

  const Status read = ReadSolverCheckpoint(path).status();
  EXPECT_EQ(read.code(), StatusCode::kInvalidArgument) << read.ToString();
  EXPECT_NE(read.message().find("removed parallel sweep mode"),
            std::string::npos)
      << read.ToString();

  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, BaseOptions())
          .ValueOrDie();
  const Status load = solver.LoadCheckpoint(path);
  EXPECT_EQ(load.code(), StatusCode::kInvalidArgument) << load.ToString();
  EXPECT_NE(load.message().find("removed parallel sweep mode"),
            std::string::npos)
      << load.ToString();
}


// ---- version-1 fixture, tampering, shape checks, mutation sweep ---------

// tests/data/ckpt_v1_pruned_minibatch.fkmc was written by the format-1
// writer, which also stored the derived state (counts, norm caches,
// moments, bound tables): the run below stopped in its third sweep after
// the fourth mini-batch. Its world is seed 123 with every feature rounded
// to a multiple of 1/8, so every dot product is exact and the trajectory
// does not depend on the kernel backend that wrote or reads the file.
SeededWorld FixtureWorld() {
  testutil::WorldSpec spec;
  spec.blobs = 4;
  spec.per_blob = 40;
  spec.k = 5;
  spec.categorical_attrs = 3;
  spec.numeric_attrs = 1;
  SeededWorld world = MakeSeededWorld(123, spec);
  for (size_t i = 0; i < world.points.rows(); ++i) {
    for (size_t j = 0; j < world.points.cols(); ++j) {
      double& v = world.points.At(i, j);
      v = std::round(v * 8.0) / 8.0;
    }
  }
  return world;
}

FairKMOptions FixtureOptions() {
  FairKMOptions options;
  options.k = 5;
  options.max_iterations = 10;
  options.minibatch_size = 16;
  options.enable_pruning = true;
  return options;
}

std::string FixturePath() {
  return std::string(FAIRKM_TEST_DATA_DIR) + "/ckpt_v1_pruned_minibatch.fkmc";
}

// A state section decoded generically — vectors of 4- or 8-byte elements
// (flat or nested) and 1-, 4- or 8-byte scalars — so a test can alter any
// field and re-encode it. Scalars and flat vectors hold one row.
enum class FieldKind { kU8, kU32, kU64, kVec32, kVec64, kNested64 };

struct StateField {
  FieldKind kind;
  std::vector<std::vector<uint64_t>> rows;
};

using K = FieldKind;
// Field order of the version-1 state section.
const std::vector<FieldKind> kLayoutV1 = {
    K::kVec32,    K::kVec64,    K::kVec64,    K::kVec64,    K::kNested64,
    K::kNested64, K::kNested64, K::kNested64, K::kU8,       K::kVec64,
    K::kVec64,    K::kVec64,    K::kU8,       K::kVec64,    K::kU64,
    K::kNested64, K::kNested64, K::kVec64,    K::kVec64,    K::kU64,
    K::kU64,      K::kU32,      K::kU64,      K::kU64,      K::kU32};
// v1 field indices the tampering tests touch.
constexpr size_t kV1Counts = 1, kV1SumNorms = 3, kV1CatU2 = 6,
                 kV1FirstBoundField = 15;
// Field order of the version-2 state section (primary fields only).
const std::vector<FieldKind> kLayoutV2 = {
    K::kVec32, K::kVec64, K::kNested64, K::kU8, K::kVec64,
    K::kVec64, K::kU8,    K::kVec64,    K::kU64};

Status GetElem(io::BinaryReader* r, size_t width, uint64_t* out) {
  if (width == 1) {
    uint8_t v = 0;
    FAIRKM_RETURN_NOT_OK(r->GetU8(&v));
    *out = v;
  } else if (width == 4) {
    uint32_t v = 0;
    FAIRKM_RETURN_NOT_OK(r->GetU32(&v));
    *out = v;
  } else {
    FAIRKM_RETURN_NOT_OK(r->GetU64(out));
  }
  return Status::OK();
}

void PutElem(io::BinaryWriter* w, size_t width, uint64_t v) {
  if (width == 1) {
    w->PutU8(static_cast<uint8_t>(v));
  } else if (width == 4) {
    w->PutU32(static_cast<uint32_t>(v));
  } else {
    w->PutU64(v);
  }
}

size_t Width(FieldKind kind) {
  switch (kind) {
    case K::kU8: return 1;
    case K::kU32:
    case K::kVec32: return 4;
    default: return 8;
  }
}

Status GetRow(io::BinaryReader* r, size_t width, std::vector<uint64_t>* row) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(width, &n));
  row->resize(n);
  for (uint64_t& v : *row) FAIRKM_RETURN_NOT_OK(GetElem(r, width, &v));
  return Status::OK();
}

Result<std::vector<StateField>> DecodeFields(
    const std::string& payload, const std::vector<FieldKind>& layout) {
  io::BinaryReader r(payload);
  std::vector<StateField> fields;
  for (const FieldKind kind : layout) {
    StateField field{kind, {}};
    const size_t width = Width(kind);
    if (kind == K::kNested64) {
      size_t n = 0;
      FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &n));
      field.rows.resize(n);
      for (auto& row : field.rows) {
        FAIRKM_RETURN_NOT_OK(GetRow(&r, width, &row));
      }
    } else if (kind == K::kVec32 || kind == K::kVec64) {
      field.rows.resize(1);
      FAIRKM_RETURN_NOT_OK(GetRow(&r, width, &field.rows[0]));
    } else {
      field.rows.assign(1, std::vector<uint64_t>(1));
      FAIRKM_RETURN_NOT_OK(GetElem(&r, width, &field.rows[0][0]));
    }
    fields.push_back(std::move(field));
  }
  FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  return fields;
}

std::string EncodeFields(const std::vector<StateField>& fields) {
  io::BinaryWriter w;
  for (const StateField& field : fields) {
    const size_t width = Width(field.kind);
    if (field.kind == K::kNested64) w.PutU64(field.rows.size());
    for (const auto& row : field.rows) {
      if (field.kind != K::kU8 && field.kind != K::kU32 &&
          field.kind != K::kU64) {
        w.PutU64(row.size());
      }
      for (const uint64_t v : row) PutElem(&w, width, v);
    }
  }
  return w.Release();
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The state section (tag 2) of a checkpoint file, with the file's own
// magic and version so a re-framed copy keeps them.
struct FramedFile {
  uint32_t magic = 0;
  io::SectionFile file;
  io::Section& state() {
    for (io::Section& section : file.sections) {
      if (section.tag == 2) return section;
    }
    ADD_FAILURE() << "no state section";
    return file.sections.front();
  }
};

FramedFile ReadFramed(const std::string& path) {
  std::string bytes;
  EXPECT_TRUE(io::ReadFile(path, &bytes, "test").ok());
  FramedFile out;
  uint32_t version = 0;
  std::memcpy(&out.magic, bytes.data(), sizeof(out.magic));
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  out.file = io::ReadSectionFile(path, out.magic, version, "test").ValueOrDie();
  return out;
}

// Re-frames `framed` at `path` with every CRC recomputed.
void WriteFramed(const FramedFile& framed, const std::string& path) {
  ASSERT_TRUE(io::WriteSectionFile(path, framed.magic, framed.file.version,
                                   framed.file.sections, "test")
                  .ok());
}

void ExpectSameRun(const FairKMResult& a, const FairKMResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_candidates, b.total_candidates);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  EXPECT_EQ(a.pruned_stage1_candidates, b.pruned_stage1_candidates);
  EXPECT_EQ(a.pruned_stage2_candidates, b.pruned_stage2_candidates);
}

class CheckpointIoFixtureTest : public CheckpointIoTest {
 protected:
  void SetUp() override {
    CheckpointIoTest::SetUp();
    // These tests are about pruned runs, so they must see pruning even
    // under the CI job that exports FAIRKM_DISABLE_PRUNING=1.
    ::unsetenv("FAIRKM_DISABLE_PRUNING");
    world_ = FixtureWorld();
  }

  // Loads `path` into a fresh solver, checks the restored state against a
  // recount, and runs it to the end.
  FairKMResult Resume(const std::string& path) {
    FairKMSolver solver =
        FairKMSolver::Create(&world_.points, &world_.sensitive,
                             FixtureOptions())
            .ValueOrDie();
    const Status loaded = solver.LoadCheckpoint(path);
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_TRUE(StateMatchesRecount(solver.state(), world_, 1e-9));
    EXPECT_TRUE(solver.Run().ok());
    return solver.CurrentResult().ValueOrDie();
  }

  // Decodes the fixture's v1 state section, lets `tamper` alter it, and
  // writes the re-framed file; returns its path.
  std::string TamperedFixture(
      const std::function<void(std::vector<StateField>*)>& tamper) {
    FramedFile framed = ReadFramed(FixturePath());
    EXPECT_EQ(framed.file.version, 1u);
    std::vector<StateField> fields =
        DecodeFields(framed.state().payload, kLayoutV1).ValueOrDie();
    tamper(&fields);
    framed.state().payload = EncodeFields(fields);
    const std::string path = Path("tampered.fkmc");
    WriteFramed(framed, path);
    return path;
  }

  SeededWorld world_;
};

TEST_F(CheckpointIoFixtureTest, V1FixtureResumesLikeTheUninterruptedRun) {
  FairKMSolver reference =
      FairKMSolver::Create(&world_.points, &world_.sensitive, FixtureOptions())
          .ValueOrDie();
  ASSERT_TRUE(reference.Init(uint64_t{5}).ok());
  ASSERT_TRUE(reference.Run().ok());
  const FairKMResult a = reference.CurrentResult().ValueOrDie();
  ASSERT_GT(a.pruned_candidates, 0u);

  Result<SolverCheckpoint> cp = ReadSolverCheckpoint(FixturePath());
  ASSERT_TRUE(cp.ok()) << cp.status();
  EXPECT_EQ(cp.ValueOrDie().sweeps_completed, 2);
  EXPECT_EQ(cp.ValueOrDie().next_point, 64u);
  ExpectSameRun(a, Resume(FixturePath()));
}

TEST_F(CheckpointIoFixtureTest, V1CountsOffByOneAreRecountedOnLoad) {
  const FairKMResult intact = Resume(FixturePath());
  const std::string path = TamperedFixture([](std::vector<StateField>* f) {
    std::vector<uint64_t>& counts = (*f)[kV1Counts].rows[0];
    ASSERT_GT(counts[0], 0u);
    --counts[0];  // The total stays n.
    ++counts[1];
  });
  ExpectSameRun(intact, Resume(path));
}

TEST_F(CheckpointIoFixtureTest, V1ShortSumNormsAreRecomputedOnLoad) {
  const FairKMResult intact = Resume(FixturePath());
  const std::string path = TamperedFixture(
      [](std::vector<StateField>* f) { (*f)[kV1SumNorms].rows[0].pop_back(); });
  ExpectSameRun(intact, Resume(path));
}

TEST_F(CheckpointIoFixtureTest, V1CatU2OfWrongLengthIsRecomputedOnLoad) {
  const FairKMResult intact = Resume(FixturePath());
  const std::string path = TamperedFixture(
      [](std::vector<StateField>* f) { (*f)[kV1CatU2].rows[0].pop_back(); });
  ExpectSameRun(intact, Resume(path));
}

TEST_F(CheckpointIoFixtureTest, V1GarbageBoundTablesAreRecomputedOnLoad) {
  const FairKMResult intact = Resume(FixturePath());
  const std::string path = TamperedFixture([](std::vector<StateField>* f) {
    // Both delta tables, both bound rows, the insertion and addition-factor
    // pairs: huge lower bounds that would prune every candidate.
    for (size_t i = kV1FirstBoundField; i < f->size(); ++i) {
      StateField& field = (*f)[i];
      for (auto& row : field.rows) {
        for (uint64_t& v : row) v = field.kind == K::kU32 ? 0 : Bits(1e30);
      }
    }
  });
  ExpectSameRun(intact, Resume(path));
}

// Primary lengths that contradict the file's own n/k/stride are corruption:
// the read is kDataLoss, so resume quarantines the file and falls back.
class CheckpointIoShapeTest : public CheckpointIoFixtureTest {
 protected:
  Status WriteAndRead(
      const std::function<void(FairKMState::Checkpoint*)>& alter) {
    SolverCheckpoint cp = ReadSolverCheckpoint(FixturePath()).ValueOrDie();
    alter(&cp.state);
    const std::string path = Path(CheckpointFileName(3));
    EXPECT_TRUE(WriteSolverCheckpoint(path, cp).ok());
    return ReadSolverCheckpoint(path).status();
  }
};

TEST_F(CheckpointIoShapeTest, SumsNotAWholeNumberOfRowsIsDataLoss) {
  const Status st =
      WriteAndRead([](FairKMState::Checkpoint* s) { s->sums.pop_back(); });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();

  // Resume quarantines it and falls back to the intact older file.
  ASSERT_TRUE(fs::copy_file(FixturePath(), Path(CheckpointFileName(2))));
  FairKMSolver solver =
      FairKMSolver::Create(&world_.points, &world_.sensitive, FixtureOptions())
          .ValueOrDie();
  ASSERT_TRUE(solver.ResumeFromCheckpointDir(dir_.string()).ok());
  EXPECT_TRUE(fs::exists(Path(CheckpointFileName(3) + ".corrupt")));
}

TEST_F(CheckpointIoShapeTest, AssignmentOfWrongLengthOrClusterIsDataLoss) {
  Status st = WriteAndRead(
      [](FairKMState::Checkpoint* s) { s->assignment.pop_back(); });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
  st = WriteAndRead([](FairKMState::Checkpoint* s) { s->assignment[7] = 5; });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST_F(CheckpointIoShapeTest, NumSumsRowOfWrongLengthIsDataLoss) {
  const Status st = WriteAndRead(
      [](FairKMState::Checkpoint* s) { s->num_sums[0].push_back(0.0); });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST_F(CheckpointIoShapeTest, ProtoCountsOfWrongLengthIsDataLoss) {
  const Status st = WriteAndRead(
      [](FairKMState::Checkpoint* s) { s->proto_counts.pop_back(); });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST_F(CheckpointIoShapeTest, ProtoSumsOfWrongLengthIsDataLoss) {
  const Status st = WriteAndRead([](FairKMState::Checkpoint* s) {
    s->proto_sums.resize(s->proto_sums.size() + 4, 0.0);
  });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST_F(CheckpointIoShapeTest, DriftOfWrongLengthWithBoundsOnIsDataLoss) {
  const Status st = WriteAndRead([](FairKMState::Checkpoint* s) {
    ASSERT_TRUE(s->track_bounds);
    s->drift.pop_back();
  });
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

// A consistent file of another stride fits no solver over these points:
// it reads fine and the load refuses it as kInvalidArgument.
TEST_F(CheckpointIoShapeTest, ConsistentFileOfOtherStrideIsInvalidArgument) {
  SolverCheckpoint cp = ReadSolverCheckpoint(FixturePath()).ValueOrDie();
  const size_t k = static_cast<size_t>(cp.k);
  cp.state.sums.resize(cp.state.sums.size() + 4 * k, 0.0);
  cp.state.proto_sums.resize(cp.state.proto_sums.size() + 4 * k, 0.0);
  const std::string path = Path("stride.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(path, cp).ok());
  ASSERT_TRUE(ReadSolverCheckpoint(path).ok());
  FairKMSolver solver =
      FairKMSolver::Create(&world_.points, &world_.sensitive, FixtureOptions())
          .ValueOrDie();
  EXPECT_EQ(solver.LoadCheckpoint(path).code(), StatusCode::kInvalidArgument);
}

// Seeded mutants of the state section (v1 fixture and its v2 rewrite):
// resized fields, perturbed values and flipped raw bytes, each re-framed
// with valid CRCs. Every load either fails with a typed status or leaves a
// state that matches a recount — never a crash — and a loaded state runs a
// sweep. The loader admits feature sums within 1e-9 * sqrt(n sum ||x||^2)
// of the recount, hence the looser comparison tolerance.
TEST_F(CheckpointIoFixtureTest, SeededStateSectionMutantsFailTypedOrMatch) {
  SolverCheckpoint cp = ReadSolverCheckpoint(FixturePath()).ValueOrDie();
  const std::string v2_path = Path("v2.fkmc");
  ASSERT_TRUE(WriteSolverCheckpoint(v2_path, cp).ok());
  const FramedFile bases[] = {ReadFramed(FixturePath()), ReadFramed(v2_path)};
  const std::vector<FieldKind>* layouts[] = {&kLayoutV1, &kLayoutV2};
  ASSERT_EQ(bases[1].file.version, 2u);

  Rng rng(20261019);
  constexpr int kIterations = 400;
  int loaded = 0;
  int refused = 0;
  for (int it = 0; it < kIterations; ++it) {
    const size_t b = rng.UniformInt(2);
    FramedFile framed = bases[b];
    std::string& payload = framed.state().payload;
    const int how = static_cast<int>(rng.UniformInt(3));
    if (how == 2) {
      // A raw byte anywhere, length prefixes included.
      const size_t at = rng.UniformInt(payload.size());
      payload[at] = static_cast<char>(payload[at] ^ (1 + rng.UniformInt(255)));
    } else {
      std::vector<StateField> fields =
          DecodeFields(payload, *layouts[b]).ValueOrDie();
      StateField& field = fields[rng.UniformInt(fields.size())];
      if (field.rows.empty()) field.rows.emplace_back();
      std::vector<uint64_t>& row =
          field.rows[rng.UniformInt(field.rows.size())];
      const bool vector = field.kind == K::kVec32 ||
                          field.kind == K::kVec64 ||
                          field.kind == K::kNested64;
      if (how == 0 && vector) {
        // Grow by 1..3 or shrink by 1..3 (to no less than empty).
        const size_t step = 1 + rng.UniformInt(3);
        const bool grow = rng.UniformInt(2) == 0 || row.empty();
        row.resize(grow ? row.size() + step
                        : row.size() - std::min(step, row.size()),
                   Bits(1.0));
      } else if (!row.empty()) {
        uint64_t& v = row[rng.UniformInt(row.size())];
        const uint64_t specials[] = {0, 1, ~uint64_t{0}, Bits(-1.0),
                                     Bits(std::nan("")), Bits(1e300)};
        v = rng.UniformInt(2) == 0
                ? v ^ (uint64_t{1} << rng.UniformInt(8 * Width(field.kind)))
                : specials[rng.UniformInt(6)];
      }
      payload = EncodeFields(fields);
    }
    const std::string path = Path("mutant.fkmc");
    WriteFramed(framed, path);

    FairKMSolver solver =
        FairKMSolver::Create(&world_.points, &world_.sensitive,
                             FixtureOptions())
            .ValueOrDie();
    const Status st = solver.LoadCheckpoint(path);
    if (!st.ok()) {
      EXPECT_TRUE(st.code() == StatusCode::kDataLoss ||
                  st.code() == StatusCode::kInvalidArgument)
          << "iteration " << it << ": " << st.ToString();
      ++refused;
      continue;
    }
    ++loaded;
    ASSERT_TRUE(StateMatchesRecount(solver.state(), world_, 1e-5))
        << "iteration " << it;
    RunBudget one;
    one.max_sweeps = 1;
    EXPECT_TRUE(solver.Run(one).ok()) << "iteration " << it;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace core
}  // namespace fairkm
