#include "core/checkpoint_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/io.h"

namespace fairkm {
namespace core {
namespace {

constexpr uint32_t kMagic = 0x464B4D43;  // "CMKF" on disk, read as FKMC
// Version 2 dropped the derived state (counts, norm caches, moments, bound
// tables) from the state section; version-1 files still load, their derived
// fields read and discarded.
constexpr uint32_t kFormatVersion = 2;
constexpr char kFaultScope[] = "checkpoint";

// Section tags.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionState = 2;
constexpr uint32_t kSectionPruner = 3;
// Optional (readers ignore unknown tags, and files without it restore the
// split as all-stage-2), so adding it needed no format version bump.
constexpr uint32_t kSectionPruneStages = 4;

// ---- generic vector plumbing ------------------------------------------

template <typename Vec>
void PutDoubles(io::BinaryWriter* w, const Vec& v) {
  w->PutU64(v.size());
  for (double x : v) w->PutDouble(x);
}

template <typename Vec>
Status GetDoubles(io::BinaryReader* r, Vec* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(double), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(r->GetDouble(&(*v)[i]));
  }
  return Status::OK();
}

void PutSizes(io::BinaryWriter* w, const std::vector<size_t>& v) {
  w->PutU64(v.size());
  for (size_t x : v) w->PutU64(x);
}

Status GetSizes(io::BinaryReader* r, std::vector<size_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    FAIRKM_RETURN_NOT_OK(r->GetU64(&x));
    (*v)[i] = static_cast<size_t>(x);
  }
  return Status::OK();
}

void PutI32s(io::BinaryWriter* w, const std::vector<int32_t>& v) {
  w->PutU64(v.size());
  for (int32_t x : v) w->PutU32(static_cast<uint32_t>(x));
}

Status GetI32s(io::BinaryReader* r, std::vector<int32_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint32_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t x = 0;
    FAIRKM_RETURN_NOT_OK(r->GetU32(&x));
    (*v)[i] = static_cast<int32_t>(x);
  }
  return Status::OK();
}

void PutBytes8(io::BinaryWriter* w, const std::vector<uint8_t>& v) {
  w->PutU64(v.size());
  if (!v.empty()) w->PutBytes(v.data(), v.size());
}

Status GetBytes8(io::BinaryReader* r, std::vector<uint8_t>* v) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(1, &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(r->GetU8(&(*v)[i]));
  }
  return Status::OK();
}

void PutNestedDoubles(io::BinaryWriter* w,
                      const std::vector<std::vector<double>>& v) {
  w->PutU64(v.size());
  for (const std::vector<double>& inner : v) PutDoubles(w, inner);
}

Status GetNestedDoubles(io::BinaryReader* r,
                        std::vector<std::vector<double>>* v) {
  size_t n = 0;
  // Each inner vector costs at least its own u64 length header.
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  v->assign(n, {});
  for (std::vector<double>& inner : *v) {
    FAIRKM_RETURN_NOT_OK(GetDoubles(r, &inner));
  }
  return Status::OK();
}

// Skip one length-prefixed vector of 8-byte elements / `count` nested
// vectors of them (each a length prefix, then that many vectors).
Status SkipVector(io::BinaryReader* r) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  return r->Skip(n * sizeof(uint64_t));
}

Status SkipNested(io::BinaryReader* r, int count) {
  for (int i = 0; i < count; ++i) {
    size_t n = 0;
    FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
    for (size_t j = 0; j < n; ++j) FAIRKM_RETURN_NOT_OK(SkipVector(r));
  }
  return Status::OK();
}

// ---- sections ---------------------------------------------------------

std::string EncodeMeta(const SolverCheckpoint& cp) {
  io::BinaryWriter w;
  w.PutU64(cp.num_rows);
  w.PutU32(static_cast<uint32_t>(cp.k));
  w.PutU64(cp.batch_size);
  // Retired sweep-mode byte, kept so the layout and format version stay
  // put: always 0 (see DecodeMeta).
  w.PutU8(0);
  w.PutDouble(cp.lambda);
  w.PutU32(static_cast<uint32_t>(cp.sweeps_completed));
  w.PutU8(cp.converged ? 1 : 0);
  w.PutU64(cp.next_point);
  w.PutU64(cp.moves_in_sweep);
  PutDoubles(&w, cp.objective_history);
  w.PutU64(cp.total_candidates);
  w.PutU64(cp.pruned_candidates);
  w.PutDouble(cp.sweep_seconds);
  w.PutU8(cp.has_pruner ? 1 : 0);
  return w.Release();
}

Status DecodeMeta(const std::string& payload, SolverCheckpoint* cp) {
  io::BinaryReader r(payload);
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  uint8_t u8 = 0;
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->num_rows = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
  cp->k = static_cast<int>(u32);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->batch_size = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  if (u8 != 0) {
    return Status::InvalidArgument(
        "checkpoint was written by the removed parallel sweep mode; restart "
        "the run (serial and mini-batch checkpoints still load)");
  }
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&cp->lambda));
  FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
  cp->sweeps_completed = static_cast<int>(u32);
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  cp->converged = u8 != 0;
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->next_point = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  cp->moves_in_sweep = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &cp->objective_history));
  FAIRKM_RETURN_NOT_OK(r.GetU64(&cp->total_candidates));
  FAIRKM_RETURN_NOT_OK(r.GetU64(&cp->pruned_candidates));
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&cp->sweep_seconds));
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  cp->has_pruner = u8 != 0;
  return r.ExpectFullyConsumed();
}

std::string EncodeState(const FairKMState::Checkpoint& st) {
  io::BinaryWriter w;
  PutI32s(&w, st.assignment);
  PutDoubles(&w, st.sums);
  PutNestedDoubles(&w, st.num_sums);
  w.PutU8(st.use_snapshot ? 1 : 0);
  PutSizes(&w, st.proto_counts);
  PutDoubles(&w, st.proto_sums);
  w.PutU8(st.track_bounds ? 1 : 0);
  PutDoubles(&w, st.drift);
  w.PutDouble(st.max_step_sum);
  return w.Release();
}

// The v2 state section is the v1 one with the derived fields left out;
// a v1 file's derived fields are read past, never trusted.
Status DecodeState(const std::string& payload, uint32_t version,
                   FairKMState::Checkpoint* st) {
  io::BinaryReader r(payload);
  const bool v1 = version < 2;
  uint8_t u8 = 0;
  FAIRKM_RETURN_NOT_OK(GetI32s(&r, &st->assignment));
  if (v1) FAIRKM_RETURN_NOT_OK(SkipVector(&r));  // counts
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &st->sums));
  if (v1) FAIRKM_RETURN_NOT_OK(SkipVector(&r));     // sum_norms
  if (v1) FAIRKM_RETURN_NOT_OK(SkipNested(&r, 1));  // cat_counts
  FAIRKM_RETURN_NOT_OK(GetNestedDoubles(&r, &st->num_sums));
  if (v1) FAIRKM_RETURN_NOT_OK(SkipNested(&r, 2));  // cat_u2, cat_uq
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  st->use_snapshot = u8 != 0;
  FAIRKM_RETURN_NOT_OK(GetSizes(&r, &st->proto_counts));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &st->proto_sums));
  if (v1) FAIRKM_RETURN_NOT_OK(SkipVector(&r));  // proto_sum_norms
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  st->track_bounds = u8 != 0;
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &st->drift));
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&st->max_step_sum));
  if (v1) {
    FAIRKM_RETURN_NOT_OK(SkipNested(&r, 2));  // removal/insertion tables
    FAIRKM_RETURN_NOT_OK(SkipVector(&r));     // fair_rem_bound
    FAIRKM_RETURN_NOT_OK(SkipVector(&r));     // fair_ins_bound
    // ins_best, ins_second, ins_best_cluster, addf_best, addf_second,
    // addf_best_cluster.
    FAIRKM_RETURN_NOT_OK(r.Skip(2 * (2 * sizeof(double) + sizeof(uint32_t))));
  }
  return r.ExpectFullyConsumed();
}

// Every primary length follows from the file's own n, k and stride
// (sums.size() / k), and every cluster id from its k: one that contradicts
// them is corruption, not a file for some other solver.
Status CheckStateShape(const SolverCheckpoint& cp, const std::string& path) {
  const FairKMState::Checkpoint& st = cp.state;
  const size_t k = cp.k > 0 ? static_cast<size_t>(cp.k) : 0;
  bool ok = k > 0 && st.assignment.size() == cp.num_rows &&
            st.sums.size() % k == 0 &&
            st.proto_sums.size() == st.sums.size() &&
            st.proto_counts.size() == k &&
            (!st.track_bounds || st.drift.size() == k);
  for (const std::vector<double>& row : st.num_sums) {
    ok = ok && row.size() == k;
  }
  for (const int32_t c : st.assignment) {
    ok = ok && c >= 0 && static_cast<size_t>(c) < k;
  }
  if (ok) return Status::OK();
  return Status::DataLoss(
      "checkpoint state lengths contradict its own n/k/stride: " + path);
}

// The pruner tables are most of the file (n x k lower bounds), so they are
// encoded, streamed and freed one vector at a time; the section's declared
// size is checked against the bytes streamed.
Status WritePruner(io::SectionWriter* w, SweepPruner::Checkpoint* pr) {
  std::vector<double>* tables[] = {&pr->lb0, &pr->drift_ref, &pr->lbmin0,
                                   &pr->max_drift_ref};
  uint64_t size = sizeof(uint64_t) + pr->fresh.size();
  for (const std::vector<double>* v : tables) {
    size += sizeof(uint64_t) + v->size() * sizeof(double);
  }
  FAIRKM_RETURN_NOT_OK(w->BeginSection(kSectionPruner, size));
  for (std::vector<double>* v : tables) {
    io::BinaryWriter enc;
    PutDoubles(&enc, *v);
    std::vector<double>().swap(*v);
    FAIRKM_RETURN_NOT_OK(w->Append(enc.buffer().data(), enc.buffer().size()));
  }
  io::BinaryWriter enc;
  PutBytes8(&enc, pr->fresh);
  return w->Append(enc.buffer().data(), enc.buffer().size());
}

std::string EncodePruneStages(const SolverCheckpoint& cp) {
  io::BinaryWriter w;
  w.PutU64(cp.pruned_stage1_candidates);
  return w.Release();
}

Status DecodePruneStages(const std::string& payload, SolverCheckpoint* cp) {
  io::BinaryReader r(payload);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&cp->pruned_stage1_candidates));
  if (cp->pruned_stage1_candidates > cp->pruned_candidates) {
    return Status::DataLoss("stage-1 pruned count exceeds the pruned total");
  }
  return r.ExpectFullyConsumed();
}

Status DecodePruner(const std::string& payload, SweepPruner::Checkpoint* pr) {
  io::BinaryReader r(payload);
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->lb0));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->drift_ref));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->lbmin0));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &pr->max_drift_ref));
  FAIRKM_RETURN_NOT_OK(GetBytes8(&r, &pr->fresh));
  return r.ExpectFullyConsumed();
}

/// Payload parse failures are corruption from the caller's view, but the
/// parser can also return kDataLoss for reasons worth keeping; only rewrap
/// codes that are not already in the corruption family. kInvalidArgument
/// passes through too: it marks an intact file this binary refuses (like a
/// newer format version), which resume must not quarantine.
Status AsDataLoss(Status st, const char* what, const std::string& path) {
  if (st.ok() || st.code() == StatusCode::kDataLoss ||
      st.code() == StatusCode::kInvalidArgument) {
    return st;
  }
  return Status::DataLoss(std::string(what) + " section unreadable in " +
                          path + ": " + st.ToString());
}

}  // namespace

Status WriteSolverCheckpoint(const std::string& path, SolverCheckpoint cp) {
  // One section at a time is encoded, streamed to the file and freed, and
  // each source table is freed once encoded, so the snapshot and at most
  // one encoded section ever coexist.
  io::SectionWriter w;
  FAIRKM_RETURN_NOT_OK(w.Start(path, kMagic, kFormatVersion, kFaultScope));
  FAIRKM_RETURN_NOT_OK(w.AddSection(kSectionMeta, EncodeMeta(cp)));
  FAIRKM_RETURN_NOT_OK(w.AddSection(kSectionState, EncodeState(cp.state)));
  cp.state = FairKMState::Checkpoint();
  if (cp.has_pruner) {
    FAIRKM_RETURN_NOT_OK(WritePruner(&w, &cp.pruner));
    FAIRKM_RETURN_NOT_OK(
        w.AddSection(kSectionPruneStages, EncodePruneStages(cp)));
  }
  return w.Finish();
}

Result<SolverCheckpoint> ReadSolverCheckpoint(const std::string& path) {
  FAIRKM_ASSIGN_OR_RETURN(
      io::SectionFile file,
      io::ReadSectionFile(path, kMagic, kFormatVersion, kFaultScope));
  SolverCheckpoint cp;
  const io::Section* meta = file.Find(kSectionMeta);
  const io::Section* state = file.Find(kSectionState);
  if (meta == nullptr || state == nullptr) {
    return Status::DataLoss("checkpoint misses a required section: " + path);
  }
  FAIRKM_RETURN_NOT_OK(AsDataLoss(DecodeMeta(meta->payload, &cp), "meta",
                                  path));
  FAIRKM_RETURN_NOT_OK(AsDataLoss(
      DecodeState(state->payload, file.version, &cp.state), "state", path));
  FAIRKM_RETURN_NOT_OK(CheckStateShape(cp, path));
  if (cp.has_pruner) {
    const io::Section* pruner = file.Find(kSectionPruner);
    if (pruner == nullptr) {
      return Status::DataLoss("checkpoint misses its pruner section: " + path);
    }
    FAIRKM_RETURN_NOT_OK(
        AsDataLoss(DecodePruner(pruner->payload, &cp.pruner), "pruner", path));
    if (const io::Section* stages = file.Find(kSectionPruneStages)) {
      FAIRKM_RETURN_NOT_OK(AsDataLoss(
          DecodePruneStages(stages->payload, &cp), "prune-stages", path));
    }
  }
  return cp;
}

std::string CheckpointFileName(int sweeps_completed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%08d.fkmc", sweeps_completed);
  return buf;
}

Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir) {
  FAIRKM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          io::ListDirectory(dir));
  std::vector<std::string> out;
  for (const std::string& name : names) {
    if (name.size() == std::strlen("ckpt-00000000.fkmc") &&
        name.rfind("ckpt-", 0) == 0 &&
        name.compare(name.size() - 5, 5, ".fkmc") == 0) {
      out.push_back(name);
    }
  }
  return out;  // ListDirectory sorts; fixed-width names sort chronologically.
}

Status QuarantineCheckpoint(const std::string& path) {
  const std::string quarantined = path + ".corrupt";
  if (::rename(path.c_str(), quarantined.c_str()) != 0) {
    if (errno == ENOENT) return Status::OK();  // already gone
    return Status::IOError("quarantine rename " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status PruneCheckpointDir(const std::string& dir, int keep) {
  if (keep < 1) keep = 1;
  FAIRKM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          ListCheckpointFiles(dir));
  Status first_error;
  for (size_t i = 0; i + static_cast<size_t>(keep) < names.size(); ++i) {
    Status st = io::RemoveFile(dir + "/" + names[i]);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

}  // namespace core
}  // namespace fairkm
