// Durable solver checkpoints: field-exact round-trips through the on-disk
// format, corruption (torn/truncated/bit-flipped files) surfacing as
// kDataLoss, checkpoints of the removed parallel sweep mode refused as
// kInvalidArgument, auto-checkpointing Run budgets, and newest-valid-wins
// resume with fallback past corrupt files — all under deterministic fault
// injection, with zero crashes.

#include "core/checkpoint_io.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/fairkm.h"
#include "core/solver.h"
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
  EXPECT_EQ(a.state.counts, b.state.counts);
  EXPECT_TRUE(a.state.sums == b.state.sums);
  EXPECT_EQ(a.state.sum_norms, b.state.sum_norms);
  EXPECT_EQ(a.state.cat_counts, b.state.cat_counts);
  EXPECT_EQ(a.state.num_sums, b.state.num_sums);
  EXPECT_EQ(a.state.cat_u2, b.state.cat_u2);
  EXPECT_EQ(a.state.cat_uq, b.state.cat_uq);
  EXPECT_EQ(a.state.use_snapshot, b.state.use_snapshot);
  EXPECT_EQ(a.state.proto_counts, b.state.proto_counts);
  EXPECT_TRUE(a.state.proto_sums == b.state.proto_sums);
  EXPECT_EQ(a.state.proto_sum_norms, b.state.proto_sum_norms);
  EXPECT_EQ(a.state.track_bounds, b.state.track_bounds);
  EXPECT_EQ(a.state.drift, b.state.drift);
  EXPECT_EQ(a.state.max_step_sum, b.state.max_step_sum);
  EXPECT_EQ(a.state.cat_rem_delta, b.state.cat_rem_delta);
  EXPECT_EQ(a.state.cat_ins_delta, b.state.cat_ins_delta);
  EXPECT_EQ(a.state.fair_rem_bound, b.state.fair_rem_bound);
  EXPECT_EQ(a.state.fair_ins_bound, b.state.fair_ins_bound);
  EXPECT_EQ(a.state.ins_best, b.state.ins_best);
  EXPECT_EQ(a.state.ins_second, b.state.ins_second);
  EXPECT_EQ(a.state.ins_best_cluster, b.state.ins_best_cluster);
  EXPECT_EQ(a.state.addf_best, b.state.addf_best);
  EXPECT_EQ(a.state.addf_second, b.state.addf_second);
  EXPECT_EQ(a.state.addf_best_cluster, b.state.addf_best_cluster);

  EXPECT_EQ(a.has_pruner, b.has_pruner);
  if (a.has_pruner && b.has_pruner) {
    EXPECT_EQ(a.pruner.lb0, b.pruner.lb0);
    EXPECT_EQ(a.pruner.drift_ref, b.pruner.drift_ref);
    EXPECT_EQ(a.pruner.lbmin0, b.pruner.lbmin0);
    EXPECT_EQ(a.pruner.max_drift_ref, b.pruner.max_drift_ref);
    EXPECT_EQ(a.pruner.fresh, b.pruner.fresh);
  }
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
// trajectory. The file keeps the insertion-delta table cluster-major while
// the live table is value-major, so this also pins the transposition on
// save and restore (and the lane mirrors rebuilt on restore).
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

}  // namespace
}  // namespace core
}  // namespace fairkm
