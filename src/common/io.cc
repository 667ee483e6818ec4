#include "common/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32.h"
#include "common/fault_injection.h"

namespace fairkm {
namespace io {
namespace {

namespace fs = std::filesystem;

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// RAII fd so every early return closes the descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_;
};

std::atomic<uint64_t> dir_fsync_failures{0};

/// Best-effort fsync of the directory holding `path`, making a finished
/// rename durable. A failure (a filesystem that rejects directory fsync, a
/// fired `<scope>.dirsync` fault) does not fail the write — the rename
/// itself succeeded — but counts in DirFsyncFailures().
void SyncParentDirBestEffort(const std::string& path,
                             const std::string& fault_scope) {
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  bool synced = false;
  if (fault::Check((fault_scope + ".dirsync").c_str()).ok()) {
    Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (fd.ok() && ::fsync(fd.get()) == 0) synced = true;
  }
  if (!synced) {
    dir_fsync_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

uint64_t DirFsyncFailures() {
  return dir_fsync_failures.load(std::memory_order_relaxed);
}

void ResetDirFsyncFailures() {
  dir_fsync_failures.store(0, std::memory_order_relaxed);
}

/// The temp-file core every durable write streams through: bytes go to
/// `<path>.tmp` as they arrive, Publish() runs the one durable sequence, and
/// a file that was never published is unlinked on destruction.
class DurableFile {
 public:
  static Result<std::unique_ptr<DurableFile>> Create(const std::string& path,
                                                     const std::string& scope) {
    FAIRKM_RETURN_NOT_OK(fault::Check((scope + ".open").c_str()));
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("open", tmp);
    return std::unique_ptr<DurableFile>(new DurableFile(path, scope, fd));
  }

  ~DurableFile() {
    if (fd_ >= 0) ::close(fd_);
    if (!published_) ::unlink(tmp_.c_str());
  }
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  uint64_t size() const { return size_; }

  Status Write(const void* data, size_t size) {
    const char* p = static_cast<const char*>(data);
    for (size_t done = 0; done < size;) {
      const ssize_t n = ::write(fd_, p + done, size - done);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        // Typed: callers (degradation ladders, retry loops) can tell a full
        // disk from a broken one.
        const int err = errno;
        const std::string what = "write " + tmp_ + ": " + std::strerror(err);
        return err == ENOSPC ? Status::ResourceExhausted(what)
                             : Status::IOError(what);
      }
      done += static_cast<size_t>(n);
    }
    size_ += size;
    return Status::OK();
  }

  /// Overwrites already-written bytes (a CRC or count slot) in place.
  Status PatchAt(uint64_t offset, const std::string& bytes) {
    if (::pwrite(fd_, bytes.data(), bytes.size(), static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(bytes.size())) {
      return ErrnoStatus("pwrite", tmp_);
    }
    return Status::OK();
  }

  Status Publish() {
    // A short-write fault truncates the image but reports success: the
    // process believes the file landed, and only the reader's CRC can tell
    // otherwise.
    fault::FaultAction action;
    if (fault::Hit((scope_ + ".write").c_str(), &action)) {
      if (action.kind == fault::Kind::kShortWrite) {
        size_ = std::min<uint64_t>(action.keep_bytes, size_);
        if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
          return ErrnoStatus("ftruncate", tmp_);
        }
      } else if (!action.status.ok()) {
        return action.status;
      }
    }
    FAIRKM_RETURN_NOT_OK(fault::Check((scope_ + ".fsync").c_str()));
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", tmp_);
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return ErrnoStatus("close", tmp_);

    // A torn-rename fault models a crash while replacing the destination on
    // a filesystem without atomic rename: the final path gets the first
    // `keep` bytes (default half) and the call still reports success.
    bool torn = false;
    if (fault::Hit((scope_ + ".rename").c_str(), &action)) {
      torn = action.kind == fault::Kind::kTornRename;
      if (!torn && !action.status.ok()) return action.status;
    }
    if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
      return ErrnoStatus("rename", tmp_);
    }
    published_ = true;
    if (torn) {
      const uint64_t keep = action.keep_bytes == SIZE_MAX
                                ? size_ / 2
                                : std::min<uint64_t>(action.keep_bytes, size_);
      if (::truncate(path_.c_str(), static_cast<off_t>(keep)) != 0) {
        return ErrnoStatus("truncate", path_);
      }
      return Status::OK();
    }
    SyncParentDirBestEffort(path_, scope_);
    return Status::OK();
  }

 private:
  DurableFile(const std::string& path, const std::string& scope, int fd)
      : path_(path), tmp_(path + ".tmp"), scope_(scope), fd_(fd) {}

  std::string path_;
  std::string tmp_;
  std::string scope_;
  int fd_;
  uint64_t size_ = 0;
  bool published_ = false;
};

Status AtomicWriteFile(const std::string& path, const std::string& data,
                       const std::string& fault_scope) {
  FAIRKM_ASSIGN_OR_RETURN(std::unique_ptr<DurableFile> file,
                          DurableFile::Create(path, fault_scope));
  FAIRKM_RETURN_NOT_OK(file->Write(data.data(), data.size()));
  return file->Publish();
}

SectionWriter::SectionWriter() = default;
SectionWriter::~SectionWriter() = default;
SectionWriter::SectionWriter(SectionWriter&&) noexcept = default;
SectionWriter& SectionWriter::operator=(SectionWriter&&) noexcept = default;

Status SectionWriter::AbandonOnError(Status st) {
  if (!st.ok()) file_.reset();  // unlinks the temp file
  return st;
}

Status SectionWriter::Start(const std::string& path, uint32_t magic,
                            uint32_t version, const std::string& fault_scope) {
  if (active()) return Status::Internal("SectionWriter already started");
  FAIRKM_ASSIGN_OR_RETURN(file_, DurableFile::Create(path, fault_scope));
  magic_ = magic;
  version_ = version;
  sections_ = 0;
  frame_offset_ = 0;
  // Count and CRC are placeholders until Finish() knows the section count.
  const std::string header(kSectionHeaderBytes, '\0');
  return AbandonOnError(file_->Write(header.data(), header.size()));
}

Status SectionWriter::CloseSection() {
  if (frame_offset_ == 0) return Status::OK();  // no section open
  if (appended_ != declared_) {
    return Status::InvalidArgument(
        "section declared " + std::to_string(declared_) + " bytes, got " +
        std::to_string(appended_));
  }
  BinaryWriter crc;
  crc.PutU32(MaskCrc32c(crc_));
  const uint64_t slot = frame_offset_ + kSectionFramePrefixBytes;
  frame_offset_ = 0;
  return file_->PatchAt(slot, crc.buffer());
}

Status SectionWriter::BeginSection(uint32_t tag, uint64_t payload_size) {
  if (!active()) return Status::Internal("section writer is not active");
  FAIRKM_RETURN_NOT_OK(AbandonOnError(CloseSection()));
  BinaryWriter frame;
  frame.PutU32(tag);
  frame.PutU64(payload_size);
  crc_ = Crc32c(frame.buffer().data(), kSectionFramePrefixBytes);
  frame.PutU32(0);  // CRC slot, patched by CloseSection
  frame_offset_ = file_->size();
  declared_ = payload_size;
  appended_ = 0;
  ++sections_;
  return AbandonOnError(
      file_->Write(frame.buffer().data(), kSectionFrameBytes));
}

Status SectionWriter::Append(const void* data, size_t size) {
  if (!active() || frame_offset_ == 0) {
    return Status::Internal("Append outside an open section");
  }
  if (size > declared_ - appended_) {
    return AbandonOnError(Status::InvalidArgument(
        "section payload overruns its declared " + std::to_string(declared_) +
        " bytes"));
  }
  crc_ = Crc32cExtend(crc_, data, size);
  appended_ += size;
  return AbandonOnError(file_->Write(data, size));
}

Status SectionWriter::AddSection(uint32_t tag, const std::string& payload) {
  FAIRKM_RETURN_NOT_OK(BeginSection(tag, payload.size()));
  return Append(payload.data(), payload.size());
}

Status SectionWriter::Finish() {
  if (!active()) return Status::Internal("section writer is not active");
  FAIRKM_RETURN_NOT_OK(AbandonOnError(CloseSection()));
  BinaryWriter header;
  header.PutU32(magic_);
  header.PutU32(version_);
  header.PutU32(sections_);
  const std::string& prefix = header.buffer();
  header.PutU32(MaskCrc32c(Crc32c(prefix.data(), prefix.size())));
  FAIRKM_RETURN_NOT_OK(AbandonOnError(file_->PatchAt(0, header.buffer())));
  const Status st = file_->Publish();
  file_.reset();
  return st;
}

Status ReadFile(const std::string& path, std::string* out,
                const std::string& fault_scope) {
  FAIRKM_RETURN_NOT_OK(fault::Check((fault_scope + ".read").c_str()));
  Fd fd(::open(path.c_str(), O_RDONLY));
  if (!fd.ok()) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path);
  }
  struct stat sb;
  if (::fstat(fd.get(), &sb) != 0) return ErrnoStatus("stat", path);
  out->clear();
  out->resize(static_cast<size_t>(sb.st_size));
  size_t done = 0;
  while (done < out->size()) {
    ssize_t n = ::read(fd.get(), &(*out)[done], out->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path);
    }
    if (n == 0) {
      // File shrank between stat and read; surface what is actually there.
      out->resize(done);
      break;
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteSectionFile(const std::string& path, uint32_t magic,
                        uint32_t version, const std::vector<Section>& sections,
                        const std::string& fault_scope) {
  SectionWriter writer;
  FAIRKM_RETURN_NOT_OK(writer.Start(path, magic, version, fault_scope));
  for (const Section& section : sections) {
    FAIRKM_RETURN_NOT_OK(writer.AddSection(section.tag, section.payload));
  }
  return writer.Finish();
}

Result<SectionFile> ReadSectionFile(const std::string& path, uint32_t magic,
                                    uint32_t max_version,
                                    const std::string& fault_scope) {
  std::string file;
  FAIRKM_RETURN_NOT_OK(ReadFile(path, &file, fault_scope));

  BinaryReader reader(file);
  if (reader.remaining() < kSectionHeaderBytes) {
    return Status::DataLoss("section file truncated before header: " + path);
  }
  const uint32_t header_crc =
      MaskCrc32c(Crc32c(file.data(), kSectionHeaderBytes - sizeof(uint32_t)));
  SectionFile out;
  uint32_t file_magic, section_count, stored_header_crc;
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&file_magic));
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&out.version));
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&section_count));
  FAIRKM_RETURN_NOT_OK(reader.GetU32(&stored_header_crc));
  if (file_magic != magic) {
    return Status::DataLoss("bad magic in " + path);
  }
  if (stored_header_crc != header_crc) {
    return Status::DataLoss("header checksum mismatch in " + path);
  }
  if (out.version > max_version) {
    return Status::InvalidArgument(
        "unsupported format version " + std::to_string(out.version) + " in " +
        path + " (this build reads <= " + std::to_string(max_version) + ")");
  }
  out.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    Section section;
    uint64_t payload_size = 0;
    uint32_t stored_crc = 0;
    const char* frame_prefix = file.data() + (file.size() - reader.remaining());
    FAIRKM_RETURN_NOT_OK(reader.GetU32(&section.tag));
    FAIRKM_RETURN_NOT_OK(reader.GetU64(&payload_size));
    FAIRKM_RETURN_NOT_OK(reader.GetU32(&stored_crc));
    if (payload_size > reader.remaining()) {
      return Status::DataLoss("section payload truncated in " + path);
    }
    const char* payload = file.data() + (file.size() - reader.remaining());
    uint32_t crc = Crc32c(frame_prefix, kSectionFramePrefixBytes);
    crc = Crc32cExtend(crc, payload, static_cast<size_t>(payload_size));
    if (MaskCrc32c(crc) != stored_crc) {
      return Status::DataLoss("section checksum mismatch in " + path);
    }
    section.payload.assign(payload, static_cast<size_t>(payload_size));
    FAIRKM_RETURN_NOT_OK(reader.Skip(static_cast<size_t>(payload_size)));
    out.sections.push_back(std::move(section));
  }
  FAIRKM_RETURN_NOT_OK(reader.ExpectFullyConsumed());
  return out;
}

Status CreateDirectories(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("mkdir " + path + ": " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound("no such directory: " + dir);
    }
    return Status::IOError("opendir " + dir + ": " + ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path);
  }
  return Status::OK();
}

}  // namespace io
}  // namespace fairkm
