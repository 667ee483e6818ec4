// Durable model-snapshot round-trips: a trained export survives the disk
// bit-identically (a restarted server can Publish it before any retraining),
// and every corruption mode reads back as kDataLoss, never a crash or a
// silently wrong model.

#include "serve/snapshot_io.h"

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/io.h"
#include "core/solver.h"
#include "serve/assign_service.h"
#include "serve/model_snapshot.h"
#include "testlib/worlds.h"

namespace fairkm {
namespace serve {
namespace {

using core::FairKMOptions;
using core::FairKMSolver;
using core::ModelExport;
using testutil::MakeSeededWorld;
using testutil::SeededWorld;

class SnapshotIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = (std::filesystem::temp_directory_path() /
            ("fairkm_snapshot_io_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(io::CreateDirectories(dir_).ok());
  }

  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

std::shared_ptr<const ModelSnapshot> TrainedSnapshot(const SeededWorld& world,
                                                     uint64_t version) {
  FairKMOptions options;
  options.k = 3;
  options.lambda = 60.0;
  options.max_iterations = 12;
  FairKMSolver solver =
      FairKMSolver::Create(&world.points, &world.sensitive, options)
          .ValueOrDie();
  EXPECT_TRUE(solver.Init(uint64_t{29}).ok());
  EXPECT_TRUE(solver.Run().ok());
  return MakeModelSnapshot(solver, version).ValueOrDie();
}

void ExpectModelsEqual(const ModelExport& a, const ModelExport& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.d, b.d);
  EXPECT_EQ(a.stride, b.stride);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.config.normalize_domain, b.config.normalize_domain);
  EXPECT_EQ(a.config.weighting, b.config.weighting);
  EXPECT_EQ(a.counts, b.counts);
  ASSERT_EQ(a.centroids.size(), b.centroids.size());
  for (size_t i = 0; i < a.centroids.size(); ++i) {
    EXPECT_EQ(a.centroids[i], b.centroids[i]) << "centroid element " << i;
  }
  EXPECT_EQ(a.centroid_norms, b.centroid_norms);
  EXPECT_EQ(a.moments.cat_counts, b.moments.cat_counts);
  EXPECT_EQ(a.moments.cat_u2, b.moments.cat_u2);
  EXPECT_EQ(a.moments.cat_uq, b.moments.cat_uq);
  EXPECT_EQ(a.moments.cat_q2, b.moments.cat_q2);
  EXPECT_EQ(a.moments.num_sums, b.moments.num_sums);
  ASSERT_EQ(a.categorical.size(), b.categorical.size());
  for (size_t i = 0; i < a.categorical.size(); ++i) {
    EXPECT_EQ(a.categorical[i].name, b.categorical[i].name);
    EXPECT_EQ(a.categorical[i].cardinality, b.categorical[i].cardinality);
    EXPECT_EQ(a.categorical[i].dataset_fractions,
              b.categorical[i].dataset_fractions);
    EXPECT_EQ(a.categorical[i].weight, b.categorical[i].weight);
  }
  ASSERT_EQ(a.numeric.size(), b.numeric.size());
  for (size_t i = 0; i < a.numeric.size(); ++i) {
    EXPECT_EQ(a.numeric[i].name, b.numeric[i].name);
    EXPECT_EQ(a.numeric[i].dataset_mean, b.numeric[i].dataset_mean);
    EXPECT_EQ(a.numeric[i].weight, b.numeric[i].weight);
  }
}

TEST_F(SnapshotIoTest, RoundTripIsBitIdenticalAndServable) {
  const SeededWorld world = MakeSeededWorld(400);
  const SeededWorld fresh = MakeSeededWorld(401);
  const auto snapshot = TrainedSnapshot(world, /*version=*/42);
  const std::string path = Path("model.fkms");
  ASSERT_TRUE(WriteModelSnapshot(path, *snapshot).ok());

  const auto loaded = ReadModelSnapshot(path).ValueOrDie();
  EXPECT_EQ(loaded->version(), 42u);
  ExpectModelsEqual(snapshot->model(), loaded->model());

  // The restored model serves exactly what the original would.
  AssignService original, restored;
  original.Publish(snapshot);
  restored.Publish(loaded);
  EXPECT_EQ(original.Assign(fresh.points, &fresh.sensitive).ValueOrDie(),
            restored.Assign(fresh.points, &fresh.sensitive).ValueOrDie());
}

TEST_F(SnapshotIoTest, MissingFileIsNotFound) {
  const auto result = ReadModelSnapshot(Path("absent.fkms"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotIoTest, CorruptFilesAreDataLoss) {
  const SeededWorld world = MakeSeededWorld(402);
  const auto snapshot = TrainedSnapshot(world, /*version=*/1);
  const std::string path = Path("model.fkms");
  ASSERT_TRUE(WriteModelSnapshot(path, *snapshot).ok());
  std::string image;
  ASSERT_TRUE(io::ReadFile(path, &image, "test").ok());

  // Truncations at a spread of prefixes.
  for (size_t keep = 0; keep < image.size();
       keep += 1 + image.size() / 13) {
    const std::string torn = Path("torn.fkms");
    ASSERT_TRUE(io::AtomicWriteFile(torn, image.substr(0, keep), "test").ok());
    const auto result = ReadModelSnapshot(torn);
    ASSERT_FALSE(result.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "kept " << keep << " bytes";
  }

  // Bit flips at a spread of offsets.
  for (size_t pos = 0; pos < image.size(); pos += 1 + image.size() / 29) {
    std::string flipped = image;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    const std::string bad = Path("flipped.fkms");
    ASSERT_TRUE(io::AtomicWriteFile(bad, flipped, "test").ok());
    const auto result = ReadModelSnapshot(bad);
    ASSERT_FALSE(result.ok()) << "flip at byte " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << pos;
  }
}

TEST_F(SnapshotIoTest, InconsistentShapesAreDataLoss) {
  const SeededWorld world = MakeSeededWorld(405);
  const auto snapshot = TrainedSnapshot(world, /*version=*/3);
  const ModelExport& good = snapshot->model();
  ASSERT_FALSE(good.categorical.empty());
  ASSERT_FALSE(good.numeric.empty());

  // Each edit leaves a CRC-valid, fully parseable payload whose tables
  // disagree with the declared shape — serving would index past them.
  const std::vector<std::pair<const char*, void (*)(ModelExport*)>> edits = {
      {"k larger than every table", [](ModelExport* m) { m->k = 7; }},
      {"one cluster count short",
       [](ModelExport* m) { m->counts.pop_back(); }},
      {"one centroid norm short",
       [](ModelExport* m) { m->centroid_norms.pop_back(); }},
      {"one centroid row short",
       [](ModelExport* m) {
         m->centroids.resize(m->centroids.size() - m->stride);
       }},
      {"stride below d", [](ModelExport* m) { m->d = m->stride + 1; }},
      {"stride not lane-padded", [](ModelExport* m) {
         m->stride += 1;
         m->centroids.resize(m->centroids.size() + static_cast<size_t>(m->k));
       }},
      {"zero cardinality",
       [](ModelExport* m) { m->categorical[0].cardinality = 0; }},
      {"fractions short",
       [](ModelExport* m) { m->categorical[0].dataset_fractions.pop_back(); }},
      {"count table short",
       [](ModelExport* m) { m->moments.cat_counts[0].pop_back(); }},
      {"U2 table short",
       [](ModelExport* m) { m->moments.cat_u2[1].pop_back(); }},
      {"UQ table short",
       [](ModelExport* m) { m->moments.cat_uq[0].pop_back(); }},
      {"numeric sums short",
       [](ModelExport* m) { m->moments.num_sums[0].pop_back(); }},
      {"Q2 constants missing an attribute",
       [](ModelExport* m) { m->moments.cat_q2.pop_back(); }},
      {"moment tables missing an attribute",
       [](ModelExport* m) {
         m->moments.cat_counts.pop_back();
         m->moments.cat_u2.pop_back();
         m->moments.cat_uq.pop_back();
         m->moments.cat_q2.pop_back();
       }},
      {"numeric tables missing an attribute",
       [](ModelExport* m) { m->moments.num_sums.pop_back(); }},
  };
  for (const auto& [name, edit] : edits) {
    ModelExport bad = good;
    edit(&bad);
    const std::string path = Path("bad.fkms");
    ASSERT_TRUE(WriteModelSnapshot(path, ModelSnapshot(std::move(bad), 3)).ok())
        << name;
    const auto result = ReadModelSnapshot(path);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << name;
  }
  // The untouched export still round-trips through the same check.
  ASSERT_TRUE(WriteModelSnapshot(Path("good.fkms"), *snapshot).ok());
  EXPECT_TRUE(ReadModelSnapshot(Path("good.fkms")).ok());
}

TEST_F(SnapshotIoTest, InjectedTornRenameReadsAsDataLoss) {
  const SeededWorld world = MakeSeededWorld(403);
  const auto snapshot = TrainedSnapshot(world, /*version=*/1);
  const std::string path = Path("model.fkms");

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kTornRename;
  spec.max_fires = 1;
  fault::Arm("snapshot.rename", spec);
  // The torn rename is silent — exactly like a crash mid-replace.
  ASSERT_TRUE(WriteModelSnapshot(path, *snapshot).ok());

  const auto result = ReadModelSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);

  // A clean rewrite heals the file.
  ASSERT_TRUE(WriteModelSnapshot(path, *snapshot).ok());
  EXPECT_TRUE(ReadModelSnapshot(path).ok());
}

TEST_F(SnapshotIoTest, InjectedWriteErrorLeavesOldSnapshotIntact) {
  const SeededWorld world = MakeSeededWorld(404);
  const auto v1 = TrainedSnapshot(world, /*version=*/1);
  const auto v2 = TrainedSnapshot(world, /*version=*/2);
  const std::string path = Path("model.fkms");
  ASSERT_TRUE(WriteModelSnapshot(path, *v1).ok());

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kError;
  spec.code = StatusCode::kIOError;
  spec.max_fires = 1;
  fault::Arm("snapshot.fsync", spec);
  const Status st = WriteModelSnapshot(path, *v2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);

  // The failed replace never touched the published file.
  EXPECT_EQ(ReadModelSnapshot(path).ValueOrDie()->version(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace fairkm
