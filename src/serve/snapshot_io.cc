#include "serve/snapshot_io.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/io.h"
#include "core/solver.h"

namespace fairkm {
namespace serve {

namespace {

// 'FKMS' — distinct from the solver-checkpoint magic so the two file kinds
// cannot be confused for each other.
constexpr uint32_t kMagic = 0x464B4D53;
constexpr uint32_t kFormatVersion = 1;
constexpr char kFaultScope[] = "snapshot";

constexpr uint32_t kSectionModel = 1;

template <typename Vec>
void PutDoubles(io::BinaryWriter* w, const Vec& v) {
  w->PutVector(v, [w](double x) { w->PutDouble(x); });
}

template <typename Vec>
Status GetDoubles(io::BinaryReader* r, Vec* out) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double x = 0.0;
    FAIRKM_RETURN_NOT_OK(r->GetDouble(&x));
    (*out)[i] = x;
  }
  return Status::OK();
}

template <typename Vec>
Status GetNestedDoubles(io::BinaryReader* r, Vec* out) {
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r->GetCount(sizeof(uint64_t), &n));
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(GetDoubles(r, &(*out)[i]));
  }
  return Status::OK();
}

std::string EncodeModel(const core::ModelExport& model, uint64_t version) {
  io::BinaryWriter w;
  w.PutU64(version);
  w.PutU64(model.num_rows);
  w.PutU64(model.d);
  w.PutU64(model.stride);
  w.PutU32(static_cast<uint32_t>(model.k));
  w.PutDouble(model.lambda);
  w.PutU8(model.config.normalize_domain ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(model.config.weighting));
  w.PutVector(model.counts, [&w](size_t c) { w.PutU64(c); });
  PutDoubles(&w, model.centroids);
  PutDoubles(&w, model.centroid_norms);
  w.PutVector(model.moments.cat_counts, [&w](const std::vector<int64_t>& v) {
    w.PutVector(v, [&w](int64_t x) { w.PutI64(x); });
  });
  w.PutVector(model.moments.cat_u2,
              [&w](const std::vector<double>& v) { PutDoubles(&w, v); });
  w.PutVector(model.moments.cat_uq,
              [&w](const std::vector<double>& v) { PutDoubles(&w, v); });
  PutDoubles(&w, model.moments.cat_q2);
  w.PutVector(model.moments.num_sums,
              [&w](const std::vector<double>& v) { PutDoubles(&w, v); });
  w.PutVector(model.categorical,
              [&w](const data::CategoricalSensitive& a) {
                w.PutString(a.name);
                w.PutU32(static_cast<uint32_t>(a.cardinality));
                PutDoubles(&w, a.dataset_fractions);
                w.PutDouble(a.weight);
              });
  w.PutVector(model.numeric, [&w](const data::NumericSensitive& a) {
    w.PutString(a.name);
    w.PutDouble(a.dataset_mean);
    w.PutDouble(a.weight);
  });
  return w.Release();
}

// A CRC only proves the bytes are what the writer streamed; serving indexes
// every table below by cluster id and attribute code unchecked, so a payload
// whose shapes disagree is as corrupt as a torn one.
Status CheckModelShape(const core::ModelExport& m) {
  const size_t k = static_cast<size_t>(m.k);
  const auto per_cluster = [k](const std::vector<std::vector<double>>& t) {
    for (const auto& row : t) {
      if (row.size() != k) return false;
    }
    return true;
  };
  bool ok = m.k > 0 && m.d > 0 && m.stride % 4 == 0 && m.stride >= m.d &&
            m.counts.size() == k && m.centroid_norms.size() == k &&
            m.centroids.size() % m.stride == 0 &&
            m.centroids.size() / m.stride == k &&
            m.moments.cat_counts.size() == m.categorical.size() &&
            m.moments.cat_u2.size() == m.categorical.size() &&
            m.moments.cat_uq.size() == m.categorical.size() &&
            m.moments.cat_q2.size() == m.categorical.size() &&
            m.moments.num_sums.size() == m.numeric.size() &&
            per_cluster(m.moments.cat_u2) && per_cluster(m.moments.cat_uq) &&
            per_cluster(m.moments.num_sums);
  for (size_t a = 0; ok && a < m.categorical.size(); ++a) {
    const size_t card = static_cast<size_t>(m.categorical[a].cardinality);
    const size_t cells = m.moments.cat_counts[a].size();
    ok = m.categorical[a].cardinality > 0 &&
         m.categorical[a].dataset_fractions.size() == card &&
         cells % card == 0 && cells / card == k;
  }
  if (!ok) {
    return Status::DataLoss(
        "snapshot model tables disagree with its declared shape");
  }
  return Status::OK();
}

Status DecodeModel(const std::string& payload, core::ModelExport* model,
                   uint64_t* version) {
  io::BinaryReader r(payload);
  FAIRKM_RETURN_NOT_OK(r.GetU64(version));
  uint64_t u64 = 0;
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  model->num_rows = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  model->d = static_cast<size_t>(u64);
  FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
  model->stride = static_cast<size_t>(u64);
  uint32_t u32 = 0;
  FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
  model->k = static_cast<int>(u32);
  FAIRKM_RETURN_NOT_OK(r.GetDouble(&model->lambda));
  uint8_t u8 = 0;
  FAIRKM_RETURN_NOT_OK(r.GetU8(&u8));
  model->config.normalize_domain = (u8 != 0);
  FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
  if (u32 > static_cast<uint32_t>(core::ClusterWeighting::kUnweighted)) {
    return Status::DataLoss("unknown cluster-weighting value");
  }
  model->config.weighting = static_cast<core::ClusterWeighting>(u32);
  size_t n = 0;
  FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &n));
  model->counts.resize(n);
  for (size_t i = 0; i < n; ++i) {
    FAIRKM_RETURN_NOT_OK(r.GetU64(&u64));
    model->counts[i] = static_cast<size_t>(u64);
  }
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &model->centroids));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &model->centroid_norms));
  FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &n));
  model->moments.cat_counts.resize(n);
  for (auto& v : model->moments.cat_counts) {
    size_t m = 0;
    FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &m));
    v.resize(m);
    for (size_t i = 0; i < m; ++i) {
      FAIRKM_RETURN_NOT_OK(r.GetI64(&v[i]));
    }
  }
  FAIRKM_RETURN_NOT_OK(GetNestedDoubles(&r, &model->moments.cat_u2));
  FAIRKM_RETURN_NOT_OK(GetNestedDoubles(&r, &model->moments.cat_uq));
  FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &model->moments.cat_q2));
  FAIRKM_RETURN_NOT_OK(GetNestedDoubles(&r, &model->moments.num_sums));
  FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &n));
  model->categorical.resize(n);
  for (auto& a : model->categorical) {
    FAIRKM_RETURN_NOT_OK(r.GetString(&a.name));
    FAIRKM_RETURN_NOT_OK(r.GetU32(&u32));
    a.cardinality = static_cast<int>(u32);
    FAIRKM_RETURN_NOT_OK(GetDoubles(&r, &a.dataset_fractions));
    FAIRKM_RETURN_NOT_OK(r.GetDouble(&a.weight));
  }
  FAIRKM_RETURN_NOT_OK(r.GetCount(sizeof(uint64_t), &n));
  model->numeric.resize(n);
  for (auto& a : model->numeric) {
    FAIRKM_RETURN_NOT_OK(r.GetString(&a.name));
    FAIRKM_RETURN_NOT_OK(r.GetDouble(&a.dataset_mean));
    FAIRKM_RETURN_NOT_OK(r.GetDouble(&a.weight));
  }
  FAIRKM_RETURN_NOT_OK(r.ExpectFullyConsumed());
  return CheckModelShape(*model);
}

}  // namespace

Status WriteModelSnapshot(const std::string& path,
                          const ModelSnapshot& snapshot) {
  io::SectionWriter w;
  FAIRKM_RETURN_NOT_OK(w.Start(path, kMagic, kFormatVersion, kFaultScope));
  FAIRKM_RETURN_NOT_OK(w.AddSection(
      kSectionModel, EncodeModel(snapshot.model(), snapshot.version())));
  return w.Finish();
}

Result<std::shared_ptr<const ModelSnapshot>> ReadModelSnapshot(
    const std::string& path) {
  FAIRKM_ASSIGN_OR_RETURN(
      io::SectionFile file,
      io::ReadSectionFile(path, kMagic, kFormatVersion, kFaultScope));
  const io::Section* model_section = file.Find(kSectionModel);
  if (model_section == nullptr) {
    return Status::DataLoss("snapshot file has no model section: " + path);
  }
  core::ModelExport model;
  uint64_t version = 0;
  if (Status st = DecodeModel(model_section->payload, &model, &version);
      !st.ok()) {
    if (st.code() == StatusCode::kDataLoss) return st;
    return Status::DataLoss("snapshot payload does not parse (" +
                            st.ToString() + "): " + path);
  }
  return std::shared_ptr<const ModelSnapshot>(
      std::make_shared<ModelSnapshot>(std::move(model), version));
}

}  // namespace serve
}  // namespace fairkm
