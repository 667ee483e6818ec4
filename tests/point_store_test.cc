// PointStore storage backends: the in-memory and memory-mapped backends must
// expose identical padded/aligned rows, the FKPS store file must round-trip
// bit-identically through both the one-shot Create and the streaming
// FileWriter, and every corruption mode — truncation, bit flips, injected
// short writes and torn renames — must read back as kDataLoss, never as a
// plausible point set.

#include "data/point_store.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/io.h"
#include "common/status.h"
#include "data/matrix.h"

namespace fairkm {
namespace data {
namespace {

class PointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = (std::filesystem::temp_directory_path() /
            ("fairkm_point_store_" +
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

// Deterministic fill so every backend materializes the exact same doubles.
Matrix TestMatrix(size_t rows, size_t cols) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.At(r, c) = static_cast<double>(r) * 31.0 -
                   static_cast<double>(c) * 2.5 + 0.125;
    }
  }
  return m;
}

void ExpectStoreMatchesMatrix(const PointStore& store, const Matrix& m) {
  ASSERT_EQ(store.rows(), m.rows());
  ASSERT_EQ(store.cols(), m.cols());
  ASSERT_EQ(store.stride(), PaddedStride(m.cols()));
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = store.Row(r);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(row) % kKernelAlignment, 0u)
        << "row " << r;
    for (size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(row[c], m.At(r, c)) << "row " << r << " col " << c;
    }
    for (size_t c = m.cols(); c < store.stride(); ++c) {
      EXPECT_EQ(row[c], 0.0) << "padding lane, row " << r << " col " << c;
    }
  }
}

TEST(PointStoreSpecTest, ParsesAndRoundTrips) {
  const PointStoreSpec mem = PointStoreSpec::Parse("mem").ValueOrDie();
  EXPECT_EQ(mem.backend, PointStoreSpec::Backend::kMemory);
  EXPECT_EQ(mem.ToString(), "mem");

  const PointStoreSpec mmap =
      PointStoreSpec::Parse("mmap:/tmp/points.fkps").ValueOrDie();
  EXPECT_EQ(mmap.backend, PointStoreSpec::Backend::kMmap);
  EXPECT_EQ(mmap.path, "/tmp/points.fkps");
  EXPECT_EQ(mmap.ToString(), "mmap:/tmp/points.fkps");

  for (const char* bad : {"", "MEM", "mmap:", "disk:/x", "mmap"}) {
    const auto result = PointStoreSpec::Parse(bad);
    ASSERT_FALSE(result.ok()) << "spec \"" << bad << "\"";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "spec \"" << bad << "\"";
  }
}

TEST_F(PointStoreTest, MemoryBackendPadsAndAligns) {
  const Matrix m = TestMatrix(7, 5);
  const PointStore store(m);
  ExpectStoreMatchesMatrix(store, m);
  EXPECT_EQ(store.backend(), PointStoreSpec::Backend::kMemory);
  EXPECT_TRUE(store.file_path().empty());
  EXPECT_EQ(store.data_bytes(), 7 * PaddedStride(5) * sizeof(double));
  EXPECT_FALSE(store.empty());
}

TEST_F(PointStoreTest, MmapBackendMatchesMemoryBackend) {
  const Matrix m = TestMatrix(37, 5);
  const auto mem =
      PointStore::Create(m, PointStoreSpec::Parse("mem").ValueOrDie())
          .ValueOrDie();
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("points.fkps");
  const auto mapped = PointStore::Create(m, spec).ValueOrDie();

  ExpectStoreMatchesMatrix(*mem, m);
  ExpectStoreMatchesMatrix(*mapped, m);
  EXPECT_EQ(mapped->backend(), PointStoreSpec::Backend::kMmap);
  EXPECT_EQ(mapped->file_path(), spec.path);
  EXPECT_EQ(mapped->data_bytes(), mem->data_bytes());
  for (size_t r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(std::memcmp(mem->Row(r), mapped->Row(r),
                          mem->stride() * sizeof(double)),
              0)
        << "row " << r;
  }
}

TEST_F(PointStoreTest, FileWriterStreamsTheSameImageAsCreate) {
  const Matrix m = TestMatrix(23, 6);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("create.fkps");
  ASSERT_TRUE(PointStore::Create(m, spec).ok());

  const std::string streamed_path = Path("streamed.fkps");
  PointStore::FileWriter writer =
      PointStore::FileWriter::Start(streamed_path, m.rows(), m.cols())
          .ValueOrDie();
  EXPECT_EQ(writer.rows(), m.rows());
  EXPECT_EQ(writer.cols(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    ASSERT_TRUE(writer.Append(m.Row(r)).ok()) << "row " << r;
  }
  ASSERT_TRUE(writer.Finish().ok());

  // Same rows, same declared shape -> byte-identical store files.
  std::string created, streamed;
  ASSERT_TRUE(io::ReadFile(spec.path, &created, "test").ok());
  ASSERT_TRUE(io::ReadFile(streamed_path, &streamed, "test").ok());
  EXPECT_EQ(created, streamed);

  const auto store = PointStore::Open(streamed_path).ValueOrDie();
  ExpectStoreMatchesMatrix(*store, m);
}

// tests/data/points_5x3_v1.fkps was written by PointStore::Create before
// the store writer moved onto io::SectionWriter. The 5 x 3 matrix has one
// padding lane per row and exactly representable values, so the image is
// the same on every kernel backend; both write paths must still reproduce
// it byte for byte.
TEST_F(PointStoreTest, WritersReproduceTheCheckedInStoreImage) {
  Matrix m(5, 3);
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      m.At(r, c) = static_cast<double>(r) * 1.5 -
                   static_cast<double>(c) * 0.25 + 0.125;
    }
  }
  const std::string fixture =
      std::string(FAIRKM_TEST_DATA_DIR) + "/points_5x3_v1.fkps";
  std::string expected;
  ASSERT_TRUE(io::ReadFile(fixture, &expected, "test").ok());
  ASSERT_EQ(expected.size(), 256u);

  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("created.fkps");
  ASSERT_TRUE(PointStore::Create(m, spec).ok());
  std::string created;
  ASSERT_TRUE(io::ReadFile(spec.path, &created, "test").ok());
  EXPECT_TRUE(created == expected);

  PointStore::FileWriter writer =
      PointStore::FileWriter::Start(Path("streamed.fkps"), 5, 3).ValueOrDie();
  for (size_t r = 0; r < 5; ++r) ASSERT_TRUE(writer.Append(m.Row(r)).ok());
  ASSERT_TRUE(writer.Finish().ok());
  std::string streamed;
  ASSERT_TRUE(io::ReadFile(Path("streamed.fkps"), &streamed, "test").ok());
  EXPECT_TRUE(streamed == expected);

  const auto store = PointStore::Open(fixture);
  ASSERT_TRUE(store.ok()) << store.status();
  ExpectStoreMatchesMatrix(*store.ValueOrDie(), m);
}

TEST_F(PointStoreTest, FileWriterEnforcesTheDeclaredShape) {
  EXPECT_EQ(PointStore::FileWriter::Start(Path("zero.fkps"), 0, 3)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PointStore::FileWriter::Start(Path("zero.fkps"), 3, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  const Matrix m = TestMatrix(3, 4);
  {
    // Finishing before every declared row arrived must fail, not seal a
    // short store.
    PointStore::FileWriter writer =
        PointStore::FileWriter::Start(Path("short.fkps"), 3, 4).ValueOrDie();
    ASSERT_TRUE(writer.Append(m.Row(0)).ok());
    const Status st = writer.Finish();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(std::filesystem::exists(Path("short.fkps")));

  {
    // One Append past the declared row count is rejected.
    PointStore::FileWriter writer =
        PointStore::FileWriter::Start(Path("extra.fkps"), 1, 4).ValueOrDie();
    ASSERT_TRUE(writer.Append(m.Row(0)).ok());
    EXPECT_EQ(writer.Append(m.Row(1)).code(), StatusCode::kInvalidArgument);
  }

  {
    // Non-finite values never reach the file.
    PointStore::FileWriter writer =
        PointStore::FileWriter::Start(Path("nan.fkps"), 2, 4).ValueOrDie();
    double row[4] = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0};
    const Status st = writer.Append(row);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(PointStoreTest, OpenMissingFileIsNotFound) {
  const auto result = PointStore::Open(Path("absent.fkps"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(PointStoreTest, EveryCorruptionReadsAsDataLoss) {
  const Matrix m = TestMatrix(6, 3);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("points.fkps");
  ASSERT_TRUE(PointStore::Create(m, spec).ok());
  std::string image;
  ASSERT_TRUE(io::ReadFile(spec.path, &image, "test").ok());

  // Truncations at a spread of prefixes.
  for (size_t keep = 0; keep < image.size(); keep += 1 + image.size() / 13) {
    const std::string torn = Path("torn.fkps");
    ASSERT_TRUE(io::AtomicWriteFile(torn, image.substr(0, keep), "test").ok());
    const auto result = PointStore::Open(torn);
    ASSERT_FALSE(result.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "kept " << keep << " bytes";
  }

  // Bit flips at a spread of offsets: header, meta, CRC slots, padding and
  // row payload are all covered by some checksum.
  for (size_t pos = 0; pos < image.size(); pos += 1 + image.size() / 61) {
    std::string flipped = image;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    const std::string bad = Path("flipped.fkps");
    ASSERT_TRUE(io::AtomicWriteFile(bad, flipped, "test").ok());
    const auto result = PointStore::Open(bad);
    ASSERT_FALSE(result.ok()) << "flip at byte " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "flip at byte " << pos;
  }

  // Trailing garbage (file size no longer matches the declared shape).
  ASSERT_TRUE(
      io::AtomicWriteFile(Path("long.fkps"), image + "tail", "test").ok());
  const auto result = PointStore::Open(Path("long.fkps"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST_F(PointStoreTest, NewerFormatVersionIsInvalidArgumentNotDataLoss) {
  const Matrix m = TestMatrix(4, 3);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("points.fkps");
  ASSERT_TRUE(PointStore::Create(m, spec).ok());
  std::string image;
  ASSERT_TRUE(io::ReadFile(spec.path, &image, "test").ok());

  // Bump the version field and re-seal the header CRC so the file is a
  // well-formed store of a FUTURE format, not a corrupt one of this format.
  const uint32_t future_version = 2;
  std::memcpy(&image[4], &future_version, sizeof(future_version));
  const uint32_t header_crc = MaskCrc32c(Crc32c(image.data(), 12));
  std::memcpy(&image[12], &header_crc, sizeof(header_crc));
  ASSERT_TRUE(io::AtomicWriteFile(Path("future.fkps"), image, "test").ok());

  const auto result = PointStore::Open(Path("future.fkps"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PointStoreTest, InjectedShortWriteSurfacesAtOpen) {
  const Matrix m = TestMatrix(16, 4);
  const std::string path = Path("points.fkps");

  fault::FaultSpec spec;
  spec.kind = fault::Kind::kShortWrite;
  spec.keep_bytes = 200;
  spec.max_fires = 1;
  fault::Arm("pointstore.write", spec);

  // The short write is silent: the writer believes the store landed.
  PointStore::FileWriter writer =
      PointStore::FileWriter::Start(path, m.rows(), m.cols()).ValueOrDie();
  for (size_t r = 0; r < m.rows(); ++r) {
    ASSERT_TRUE(writer.Append(m.Row(r)).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());

  // Only the verify-on-open CRC walk can tell the bytes never made it.
  const auto result = PointStore::Open(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST_F(PointStoreTest, InjectedTornRenameSurfacesAtOpenAndRewriteHeals) {
  const Matrix m = TestMatrix(16, 4);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("points.fkps");

  fault::FaultSpec torn;
  torn.kind = fault::Kind::kTornRename;
  torn.max_fires = 1;
  fault::Arm("pointstore.rename", torn);

  // Create = write + Open, so the torn image is caught immediately.
  const auto first = PointStore::Create(m, spec);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);

  // A clean rewrite replaces the torn file and reads back intact.
  const auto healed = PointStore::Create(m, spec);
  ASSERT_TRUE(healed.ok()) << healed.status().message();
  ExpectStoreMatchesMatrix(*healed.ValueOrDie(), m);
}

TEST_F(PointStoreTest, InjectedOpenFsyncAndReadErrorsPropagate) {
  const Matrix m = TestMatrix(8, 3);
  const std::string path = Path("points.fkps");

  fault::FaultSpec io_error;
  io_error.kind = fault::Kind::kError;
  io_error.code = StatusCode::kIOError;
  io_error.max_fires = 1;

  fault::Arm("pointstore.open", io_error);
  EXPECT_EQ(PointStore::FileWriter::Start(path, m.rows(), m.cols())
                .status()
                .code(),
            StatusCode::kIOError);
  fault::DisarmAll();

  // A failed fsync aborts the publish: the final path never appears.
  fault::Arm("pointstore.fsync", io_error);
  {
    PointStore::FileWriter writer =
        PointStore::FileWriter::Start(path, m.rows(), m.cols()).ValueOrDie();
    for (size_t r = 0; r < m.rows(); ++r) {
      ASSERT_TRUE(writer.Append(m.Row(r)).ok());
    }
    EXPECT_EQ(writer.Finish().code(), StatusCode::kIOError);
  }
  fault::DisarmAll();
  EXPECT_EQ(PointStore::Open(path).status().code(), StatusCode::kNotFound);

  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = path;
  ASSERT_TRUE(PointStore::Create(m, spec).ok());
  fault::Arm("pointstore.read", io_error);
  EXPECT_EQ(PointStore::Open(path).status().code(), StatusCode::kIOError);
  fault::DisarmAll();
  EXPECT_TRUE(PointStore::Open(path).ok());
}

TEST_F(PointStoreTest, EvictedRowsRefaultToIdenticalBytes) {
  // Enough rows to span several pages, so eviction actually drops pages.
  const Matrix m = TestMatrix(200, 6);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("points.fkps");
  const auto store = PointStore::Create(m, spec).ValueOrDie();

  std::vector<double> before(store->rows() * store->stride());
  for (size_t r = 0; r < store->rows(); ++r) {
    std::memcpy(before.data() + r * store->stride(), store->Row(r),
                store->stride() * sizeof(double));
  }

  store->EvictRows(0, store->rows());
  store->EvictRows(10, 10);  // Empty range is a no-op.
  for (size_t r = 0; r < store->rows(); ++r) {
    EXPECT_EQ(std::memcmp(before.data() + r * store->stride(), store->Row(r),
                          store->stride() * sizeof(double)),
              0)
        << "row " << r << " changed across eviction";
  }

  // The memory backend accepts (and ignores) eviction too.
  const PointStore mem(m);
  mem.EvictRows(0, mem.rows());
  ExpectStoreMatchesMatrix(mem, m);
}

TEST_F(PointStoreTest, TruncationAfterOpenReadsAsDataLossNotSigbus) {
  // Shrinking the backing file underneath a live mapping (concurrent
  // writer, filesystem fault) must surface as kDataLoss from the guarded
  // probe — never as a SIGBUS on the first touch past the new EOF.
  const Matrix m = TestMatrix(64, 6);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("points.fkps");
  const auto store = PointStore::Create(m, spec).ValueOrDie();
  ASSERT_TRUE(store->CheckBacking().ok());

  const auto size = std::filesystem::file_size(spec.path);
  ASSERT_EQ(::truncate(spec.path.c_str(), static_cast<off_t>(size / 2)), 0);

  const Status probe = store->CheckBacking();
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.code(), StatusCode::kDataLoss);
  // The chunked walk re-probes before touching each chunk, so it refuses
  // cleanly instead of crashing the process.
  EXPECT_EQ(ValidateFiniteStore(*store, "points").code(),
            StatusCode::kDataLoss);

  // The injectable flavour of the same probe; the memory backend holds no
  // mapping and never consults the fault point.
  fault::Arm("pointstore.truncate", fault::FaultSpec{});
  const PointStore mem(m);
  EXPECT_TRUE(mem.CheckBacking().ok());
  fault::DisarmAll();
  EXPECT_EQ(store->CheckBacking().code(), StatusCode::kDataLoss);
}

TEST_F(PointStoreTest, ValidateFiniteStoreFlagsNonFiniteLanes) {
  Matrix m = TestMatrix(5, 4);
  const PointStore clean(m);
  EXPECT_TRUE(ValidateFiniteStore(clean, "points").ok());

  m.At(3, 2) = std::numeric_limits<double>::quiet_NaN();
  const PointStore dirty(m);
  const Status st = ValidateFiniteStore(dirty, "points");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("row 3"), std::string::npos);
}

TEST_F(PointStoreTest, AppendAndSwapRemoveGrowAndShrinkTheMemoryBackend) {
  const Matrix m = TestMatrix(4, 3);
  PointStore store(m);
  const std::vector<double> extra = {100.0, 101.0, 102.0};
  ASSERT_TRUE(store.AppendRow(extra.data(), 3).ok());
  ASSERT_EQ(store.rows(), 5u);
  EXPECT_EQ(store.Row(4)[0], 100.0);
  EXPECT_EQ(store.Row(4)[1], 101.0);
  EXPECT_EQ(store.Row(4)[2], 102.0);
  for (size_t j = 3; j < store.stride(); ++j) {
    EXPECT_EQ(store.Row(4)[j], 0.0) << "padding lane " << j;
  }
  // Earlier rows survive the (possibly reallocating) growth untouched.
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(store.Row(r)[c], m.At(r, c));
  }

  EXPECT_EQ(store.AppendRow(extra.data(), 2).code(),
            StatusCode::kInvalidArgument);
  const std::vector<double> dirty = {
      1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  EXPECT_EQ(store.AppendRow(dirty.data(), 3).code(),
            StatusCode::kInvalidArgument);
  ASSERT_EQ(store.rows(), 5u);  // Rejections left the store unchanged.

  // Swap-with-last removal: the appended row slides into the hole.
  ASSERT_TRUE(store.SwapRemoveRow(1).ok());
  ASSERT_EQ(store.rows(), 4u);
  EXPECT_EQ(store.Row(1)[0], 100.0);
  EXPECT_EQ(store.Row(1)[1], 101.0);
  EXPECT_EQ(store.SwapRemoveRow(17).code(), StatusCode::kInvalidArgument);
}

// The online-admit contract of the read-only backend: growing an mmap store
// fails with an actionable kInvalidArgument (naming the `mem` remedy), and
// the mapping is left byte-identical.
TEST_F(PointStoreTest, MmapBackendRefusesOnlineGrowthActionably) {
  const Matrix m = TestMatrix(6, 3);
  PointStoreSpec spec;
  spec.backend = PointStoreSpec::Backend::kMmap;
  spec.path = Path("grow.fkps");
  const auto mapped = PointStore::Create(m, spec).ValueOrDie();
  // AppendRow/SwapRemoveRow are non-const; the shared handle is const by
  // design (readers). The cast is safe here: the mmap paths reject before
  // touching anything.
  auto* store = const_cast<PointStore*>(mapped.get());

  const std::vector<double> extra = {1.0, 2.0, 3.0};
  const Status append = store->AppendRow(extra.data(), 3);
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(append.message().find("read-only mmap store"), std::string::npos);
  EXPECT_NE(append.message().find("--store=mem"), std::string::npos);

  const Status remove = store->SwapRemoveRow(0);
  ASSERT_FALSE(remove.ok());
  EXPECT_EQ(remove.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(remove.message().find("--store=mem"), std::string::npos);

  EXPECT_EQ(mapped->rows(), 6u);
  ExpectStoreMatchesMatrix(*mapped, m);
}

}  // namespace
}  // namespace data
}  // namespace fairkm
