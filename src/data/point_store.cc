#include "data/point_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/io.h"

namespace fairkm {
namespace data {
namespace {

// On-disk container constants ("FKPS" store file, common/io.h framing).
constexpr uint32_t kStoreMagic = 0x53504B46;  // "FKPS" little-endian
constexpr uint32_t kStoreVersion = 1;
constexpr uint32_t kMetaTag = 1;
constexpr uint32_t kRowsTag = 2;
constexpr size_t kMetaPayloadBytes = 24;   // rows, cols, stride as u64

// File layout derived from the fixed header/frame sizes: the rows payload
// begins with enough zero padding that row 0 lands on a 32-byte file
// offset, which a page-aligned mapping turns into a 32-byte pointer.
constexpr size_t kMetaFrameOff = io::kSectionHeaderBytes;
constexpr size_t kMetaPayloadOff = kMetaFrameOff + io::kSectionFrameBytes;
constexpr size_t kRowsFrameOff = kMetaPayloadOff + kMetaPayloadBytes;
constexpr size_t kRowsPayloadOff = kRowsFrameOff + io::kSectionFrameBytes;
constexpr size_t kDataOff = (kRowsPayloadOff + kKernelAlignment - 1) /
                            kKernelAlignment * kKernelAlignment;
constexpr size_t kRowsPad = kDataOff - kRowsPayloadOff;

// How many row bytes the RSS-bounded walks (Open verification,
// ValidateFiniteStore) process between evictions.
constexpr size_t kWalkChunkBytes = size_t{8} << 20;

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

size_t PageSize() {
  const long page = ::sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<size_t>(page) : 4096;
}

}  // namespace

// ---------------------------------------------------------------------------
// PointStoreSpec

Result<PointStoreSpec> PointStoreSpec::Parse(const std::string& spec) {
  PointStoreSpec out;
  if (spec == "mem") {
    out.backend = Backend::kMemory;
    return out;
  }
  constexpr const char kMmapPrefix[] = "mmap:";
  if (spec.rfind(kMmapPrefix, 0) == 0) {
    out.backend = Backend::kMmap;
    out.path = spec.substr(sizeof(kMmapPrefix) - 1);
    if (out.path.empty()) {
      return Status::InvalidArgument(
          "store spec \"mmap:\" needs a file path (mmap:<path>)");
    }
    return out;
  }
  return Status::InvalidArgument("unknown store spec \"" + spec +
                                 "\" (expected \"mem\" or \"mmap:<path>\")");
}

std::string PointStoreSpec::ToString() const {
  return backend == Backend::kMemory ? "mem" : "mmap:" + path;
}

// ---------------------------------------------------------------------------
// PointStore lifecycle

PointStore::PointStore(const Matrix& m)
    : rows_(m.rows()), cols_(m.cols()), stride_(PaddedStride(m.cols())) {
  data_.assign(rows_ * stride_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* src = m.Row(r);
    double* dst = data_.data() + r * stride_;
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  base_ = data_.data();
}

PointStore::~PointStore() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  if (fd_ >= 0) ::close(fd_);
}

PointStore::PointStore(PointStore&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      stride_(other.stride_),
      data_(std::move(other.data_)),
      map_(other.map_),
      map_size_(other.map_size_),
      fd_(other.fd_),
      data_offset_(other.data_offset_),
      base_(other.base_),
      path_(std::move(other.path_)),
      backend_(other.backend_) {
  // The moved-from AlignedVector keeps its heap buffer alive under us, so
  // base_ stays valid for the memory backend; only the mapping moves.
  other.map_ = nullptr;
  other.map_size_ = 0;
  other.fd_ = -1;
  other.base_ = nullptr;
  other.rows_ = other.cols_ = other.stride_ = 0;
}

PointStore& PointStore::operator=(PointStore&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    if (fd_ >= 0) ::close(fd_);
    rows_ = other.rows_;
    cols_ = other.cols_;
    stride_ = other.stride_;
    data_ = std::move(other.data_);
    map_ = other.map_;
    map_size_ = other.map_size_;
    fd_ = other.fd_;
    data_offset_ = other.data_offset_;
    base_ = other.base_;
    path_ = std::move(other.path_);
    backend_ = other.backend_;
    other.map_ = nullptr;
    other.map_size_ = 0;
    other.fd_ = -1;
    other.base_ = nullptr;
    other.rows_ = other.cols_ = other.stride_ = 0;
  }
  return *this;
}

Result<std::shared_ptr<const PointStore>> PointStore::Create(
    const Matrix& m, const PointStoreSpec& spec) {
  if (m.empty()) {
    return Status::InvalidArgument("PointStore::Create needs a non-empty matrix");
  }
  if (spec.backend == PointStoreSpec::Backend::kMemory) {
    return std::shared_ptr<const PointStore>(
        std::make_shared<PointStore>(m));
  }
  FAIRKM_ASSIGN_OR_RETURN(FileWriter writer,
                          FileWriter::Start(spec.path, m.rows(), m.cols()));
  for (size_t r = 0; r < m.rows(); ++r) {
    FAIRKM_RETURN_NOT_OK(writer.Append(m.Row(r)));
  }
  FAIRKM_RETURN_NOT_OK(writer.Finish());
  return Open(spec.path);
}

// ---------------------------------------------------------------------------
// FileWriter — meta section, then the rows section streamed row by row

Result<PointStore::FileWriter> PointStore::FileWriter::Start(
    const std::string& path, size_t rows, size_t cols) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument(
        "point store needs rows > 0 and cols > 0 (got " +
        std::to_string(rows) + " x " + std::to_string(cols) + ")");
  }
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "point store files are little-endian; big-endian hosts unsupported");
  }
  const size_t stride = PaddedStride(cols);
  if (rows > SIZE_MAX / (stride * sizeof(double))) {
    return Status::InvalidArgument("point store dimensions overflow");
  }

  FileWriter w;
  w.rows_ = rows;
  w.cols_ = cols;
  FAIRKM_RETURN_NOT_OK(
      w.writer_.Start(path, kStoreMagic, kStoreVersion, "pointstore"));
  io::BinaryWriter meta;
  meta.PutU64(rows);
  meta.PutU64(cols);
  meta.PutU64(stride);
  FAIRKM_RETURN_NOT_OK(w.writer_.AddSection(kMetaTag, meta.buffer()));
  FAIRKM_RETURN_NOT_OK(w.writer_.BeginSection(
      kRowsTag, kRowsPad + uint64_t{rows} * stride * sizeof(double)));
  const char pad[kRowsPad] = {};
  FAIRKM_RETURN_NOT_OK(w.writer_.Append(pad, kRowsPad));
  w.row_buf_.assign(stride * sizeof(double), '\0');
  return Result<FileWriter>(std::move(w));
}

Status PointStore::FileWriter::Append(const double* row) {
  if (!writer_.active()) {
    return Status::Internal("Append on a finished or failed store writer");
  }
  // Per-row fault point: mid-stream I/O errors, injected disk-full, and the
  // crash harness's kill-mid-write all land here.
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.append"));
  if (appended_ >= rows_) {
    return Status::InvalidArgument(
        "store writer declared " + std::to_string(rows_) + " rows");
  }
  for (size_t c = 0; c < cols_; ++c) {
    if (!std::isfinite(row[c])) {
      return Status::InvalidArgument(
          "point store row " + std::to_string(appended_) +
          " contains a non-finite value at column " + std::to_string(c));
    }
  }
  // Only the data lanes are rewritten, so each row is the padded image.
  std::memcpy(row_buf_.data(), row, cols_ * sizeof(double));
  FAIRKM_RETURN_NOT_OK(writer_.Append(row_buf_.data(), row_buf_.size()));
  ++appended_;
  return Status::OK();
}

Status PointStore::FileWriter::Finish() {
  if (!writer_.active()) {
    return Status::Internal("Finish on a finished or failed store writer");
  }
  if (appended_ != rows_) {
    return Status::InvalidArgument(
        "store writer got " + std::to_string(appended_) + " of " +
        std::to_string(rows_) + " declared rows");
  }
  return writer_.Finish();
}

// ---------------------------------------------------------------------------
// Open — map read-only and verify every byte before trusting the shape

Result<std::shared_ptr<const PointStore>> PointStore::Open(
    const std::string& path) {
  if (!HostIsLittleEndian()) {
    return Status::NotImplemented(
        "point store files are little-endian; big-endian hosts unsupported");
  }
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.read"));
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    Status st = ErrnoStatus("stat", path);
    ::close(fd);
    return st;
  }
  const size_t file_size = static_cast<size_t>(sb.st_size);
  if (file_size < kDataOff) {
    ::close(fd);
    return Status::DataLoss("store file truncated before row data: " + path);
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    Status st = ErrnoStatus("mmap", path);
    ::close(fd);
    return st;
  }

  auto store = std::make_shared<PointStore>();
  store->map_ = map;
  store->map_size_ = file_size;
  // The mapping alone keeps the file alive; the descriptor is retained so
  // CheckBacking() can re-fstat the backing file before chunked reads.
  store->fd_ = fd;
  store->path_ = path;
  store->backend_ = PointStoreSpec::Backend::kMmap;
  const char* bytes = static_cast<const char*>(map);

  // Header: magic, CRC over the first 12 bytes, then version/section count.
  if (LoadU32(bytes) != kStoreMagic) {
    return Status::DataLoss("bad magic in " + path);
  }
  if (LoadU32(bytes + 12) !=
      MaskCrc32c(Crc32c(bytes, io::kSectionHeaderBytes - sizeof(uint32_t)))) {
    return Status::DataLoss("header checksum mismatch in " + path);
  }
  const uint32_t version = LoadU32(bytes + 4);
  if (version > kStoreVersion) {
    return Status::InvalidArgument(
        "unsupported store version " + std::to_string(version) + " in " +
        path + " (this build reads <= " + std::to_string(kStoreVersion) + ")");
  }
  if (LoadU32(bytes + 8) != 2) {
    return Status::DataLoss("unexpected section count in " + path);
  }

  // Meta section: small, verify in one shot.
  const char* meta_frame = bytes + kMetaFrameOff;
  if (LoadU32(meta_frame) != kMetaTag ||
      LoadU64(meta_frame + 4) != kMetaPayloadBytes) {
    return Status::DataLoss("bad meta section framing in " + path);
  }
  {
    uint32_t crc = Crc32c(meta_frame, io::kSectionFramePrefixBytes);
    crc = Crc32cExtend(crc, bytes + kMetaPayloadOff, kMetaPayloadBytes);
    if (LoadU32(meta_frame + io::kSectionFramePrefixBytes) != MaskCrc32c(crc)) {
      return Status::DataLoss("meta section checksum mismatch in " + path);
    }
  }
  const uint64_t rows = LoadU64(bytes + kMetaPayloadOff);
  const uint64_t cols = LoadU64(bytes + kMetaPayloadOff + 8);
  const uint64_t stride = LoadU64(bytes + kMetaPayloadOff + 16);
  if (rows == 0 || cols == 0 || stride != PaddedStride(cols) ||
      rows > SIZE_MAX / (stride * sizeof(double))) {
    return Status::DataLoss("implausible store shape in " + path);
  }

  // Rows section framing: the declared payload size and the file size must
  // both match the shape exactly — no truncation, no trailing bytes.
  const char* rows_frame = bytes + kRowsFrameOff;
  const uint64_t row_bytes = rows * stride * sizeof(double);
  const uint64_t rows_payload = kRowsPad + row_bytes;
  if (LoadU32(rows_frame) != kRowsTag ||
      LoadU64(rows_frame + 4) != rows_payload) {
    return Status::DataLoss("bad rows section framing in " + path);
  }
  if (file_size != kRowsPayloadOff + rows_payload) {
    return Status::DataLoss("store file size mismatch in " + path);
  }

  // Rows CRC walk, chunked with eviction behind the cursor so verifying a
  // 10M-point store never pages the whole file into RSS at once. The same
  // pass rejects nonzero padding lanes: kernels dot-product the full
  // stride, so a foreign writer that left garbage there would silently
  // corrupt every accumulation.
  store->rows_ = rows;
  store->cols_ = cols;
  store->stride_ = stride;
  store->data_offset_ = kDataOff;
  store->base_ = reinterpret_cast<const double*>(bytes + kDataOff);
  if (reinterpret_cast<uintptr_t>(store->base_) % kKernelAlignment != 0) {
    return Status::DataLoss("misaligned row data in " + path);
  }
  uint32_t crc = Crc32c(rows_frame, io::kSectionFramePrefixBytes);
  crc = Crc32cExtend(crc, bytes + kRowsPayloadOff, kRowsPad);
  const size_t rows_per_chunk =
      std::max<size_t>(1, kWalkChunkBytes / (stride * sizeof(double)));
  for (size_t r = 0; r < rows; r += rows_per_chunk) {
    const size_t chunk_end = std::min(rows, r + rows_per_chunk);
    // Guarded probe: a file truncated since the fstat above would SIGBUS on
    // the first touch past the new EOF — re-validate before reading.
    FAIRKM_RETURN_NOT_OK(store->CheckBacking());
    crc = Crc32cExtend(crc, store->Row(r),
                       (chunk_end - r) * stride * sizeof(double));
    for (size_t i = r; i < chunk_end; ++i) {
      const double* p = store->Row(i);
      for (size_t c = cols; c < stride; ++c) {
        if (p[c] != 0.0) {
          return Status::DataLoss("nonzero padding lane in " + path);
        }
      }
    }
    store->EvictRows(r, chunk_end);
  }
  if (LoadU32(rows_frame + io::kSectionFramePrefixBytes) != MaskCrc32c(crc)) {
    return Status::DataLoss("rows section checksum mismatch in " + path);
  }
  return std::shared_ptr<const PointStore>(std::move(store));
}

Status PointStore::AppendRow(const double* row, size_t cols) {
  if (backend_ != PointStoreSpec::Backend::kMemory) {
    return Status::InvalidArgument(
        "cannot append to the read-only mmap store \"" + path_ +
        "\": the store file is sealed (CRC-framed) and mapped read-only — "
        "online admit needs a growable store; materialize with --store=mem");
  }
  if (row == nullptr || cols != cols_) {
    return Status::InvalidArgument(
        "AppendRow expects " + std::to_string(cols_) + " columns, got " +
        std::to_string(cols));
  }
  for (size_t c = 0; c < cols; ++c) {
    if (!std::isfinite(row[c])) {
      return Status::InvalidArgument(
          "appended row contains a non-finite value at column " +
          std::to_string(c));
    }
  }
  data_.resize((rows_ + 1) * stride_, 0.0);
  double* dst = data_.data() + rows_ * stride_;
  for (size_t c = 0; c < cols; ++c) dst[c] = row[c];
  for (size_t c = cols; c < stride_; ++c) dst[c] = 0.0;
  ++rows_;
  base_ = data_.data();  // resize may have reallocated
  return Status::OK();
}

Status PointStore::SwapRemoveRow(size_t r) {
  if (backend_ != PointStoreSpec::Backend::kMemory) {
    return Status::InvalidArgument(
        "cannot remove rows from the read-only mmap store \"" + path_ +
        "\": the store file is sealed and mapped read-only — online retire "
        "needs a growable store; materialize with --store=mem");
  }
  if (r >= rows_) {
    return Status::InvalidArgument(
        "SwapRemoveRow index " + std::to_string(r) + " out of range (rows = " +
        std::to_string(rows_) + ")");
  }
  const size_t last = rows_ - 1;
  if (r != last) {
    std::memcpy(data_.data() + r * stride_, data_.data() + last * stride_,
                stride_ * sizeof(double));
  }
  data_.resize(last * stride_);
  --rows_;
  base_ = data_.data();
  return Status::OK();
}

Status PointStore::CheckBacking() const {
  if (backend_ != PointStoreSpec::Backend::kMmap || map_ == nullptr) {
    return Status::OK();
  }
  FAIRKM_RETURN_NOT_OK(fault::Check("pointstore.truncate"));
  struct stat sb;
  if (::fstat(fd_, &sb) != 0) return ErrnoStatus("stat", path_);
  if (static_cast<size_t>(sb.st_size) < map_size_) {
    return Status::DataLoss(
        "store file truncated under mmap: " + path_ + " (" +
        std::to_string(sb.st_size) + " bytes on disk, " +
        std::to_string(map_size_) + " mapped)");
  }
  return Status::OK();
}

void PointStore::EvictRows(size_t begin, size_t end) const {
  if (map_ == nullptr || begin >= end) return;
  FAIRKM_DCHECK(end <= rows_);
  const size_t page = PageSize();
  const uintptr_t map_base = reinterpret_cast<uintptr_t>(map_);
  uintptr_t lo = map_base + data_offset_ + begin * stride_ * sizeof(double);
  uintptr_t hi = map_base + data_offset_ + end * stride_ * sizeof(double);
  lo = (lo + page - 1) / page * page;  // only pages fully inside the span
  hi = hi / page * page;
  if (lo < hi) {
    ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  }
}

Status ValidateFiniteStore(const PointStore& store, const std::string& what) {
  const size_t stride_bytes = store.stride() * sizeof(double);
  const size_t rows_per_chunk =
      std::max<size_t>(1, stride_bytes > 0 ? kWalkChunkBytes / stride_bytes : 1);
  for (size_t r = 0; r < store.rows(); r += rows_per_chunk) {
    const size_t chunk_end = std::min(store.rows(), r + rows_per_chunk);
    FAIRKM_RETURN_NOT_OK(store.CheckBacking());
    for (size_t i = r; i < chunk_end; ++i) {
      const double* row = store.Row(i);
      for (size_t c = 0; c < store.cols(); ++c) {
        if (!std::isfinite(row[c])) {
          return Status::InvalidArgument(
              what + " contains a non-finite value at row " +
              std::to_string(i) + ", column " + std::to_string(c));
        }
      }
    }
    store.EvictRows(r, chunk_end);
  }
  return Status::OK();
}

}  // namespace data
}  // namespace fairkm
