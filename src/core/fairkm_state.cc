#include "core/fairkm_state.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels/kernels.h"

namespace fairkm {
namespace core {

namespace {

// Full O(n) passes over the point store (norm cache, initial aggregates,
// scratch SSE) stream in chunks of roughly this many bytes and evict behind
// themselves, so a memory-mapped store never pages fully resident just to
// build or finalize state — the same discipline as PointStore::Open's CRC
// walk. EvictRows is a no-op for the memory backend, and eviction never
// changes what a later read returns, so trajectories are unaffected.
constexpr size_t kResidencyChunkBytes = size_t{8} << 20;

size_t ResidencyChunkRows(size_t stride) {
  return std::max<size_t>(1, kResidencyChunkBytes / (stride * sizeof(double)));
}

}  // namespace

FairKMState::FairKMState(std::shared_ptr<const data::PointStore> store,
                         const data::SensitiveView* sensitive, int k,
                         FairnessTermConfig config)
    : sensitive_(sensitive),
      k_(k),
      n_(store->rows()),
      d_(store->cols()),
      stride_(store->stride()),
      config_(config),
      store_(std::move(store)) {}

Result<FairKMState> FairKMState::Create(const data::Matrix* points,
                                        const data::SensitiveView* sensitive,
                                        int k, cluster::Assignment initial,
                                        FairnessTermConfig config) {
  if (points == nullptr || sensitive == nullptr) {
    return Status::InvalidArgument("points/sensitive must not be null");
  }
  return Create(std::make_shared<const data::PointStore>(*points), sensitive,
                k, std::move(initial), config);
}

Result<FairKMState> FairKMState::Create(
    std::shared_ptr<const data::PointStore> store,
    const data::SensitiveView* sensitive, int k, cluster::Assignment initial,
    FairnessTermConfig config) {
  if (store == nullptr || sensitive == nullptr) {
    return Status::InvalidArgument("store/sensitive must not be null");
  }
  if (store->cols() == 0) {
    return Status::InvalidArgument("points need at least one feature column");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  FAIRKM_RETURN_NOT_OK(cluster::ValidateAssignment(initial, store->rows(), k));
  // Full structural audit, not just num_rows() (which reads only the first
  // attribute): every attribute's length, fraction table and code range —
  // BuildAggregates indexes all of them unchecked.
  FAIRKM_RETURN_NOT_OK(sensitive->Validate(store->rows()));
  // Kernels stream these rows unchecked, so refuse NaN/Inf at the boundary.
  // A store Open()ed from disk passed its CRC walk, but the CRC only proves
  // the bytes are what the writer streamed — this rejects a store whose
  // writer was fed NaN/Inf (RSS-bounded scan, evicts behind).
  FAIRKM_RETURN_NOT_OK(data::ValidateFiniteStore(*store, "points"));
  FairKMState state(std::move(store), sensitive, k, config);
  state.BuildAggregates(std::move(initial));
  return state;
}

void FairKMState::BuildAggregates(cluster::Assignment initial) {
  assignment_ = std::move(initial);
  // The per-point norm cache is built once per state; a Reset over the same
  // rows skips that O(n d) pass and its allocation — the multi-seed fast
  // path. RebuildFromStore clears it to force a fresh pass.
  if (point_norms_.size() != n_) {
    const size_t chunk_rows = ResidencyChunkRows(stride_);
    point_norms_.assign(n_, 0.0);
    total_point_norm_ = 0.0;
    for (size_t base = 0; base < n_; base += chunk_rows) {
      const size_t end = std::min(n_, base + chunk_rows);
      for (size_t i = base; i < end; ++i) {
        const double* row = store_->Row(i);
        point_norms_[i] = kernels::Dot(row, row, stride_);
        total_point_norm_ += point_norms_[i];
      }
      store_->EvictRows(base, end);
    }
  }
  SumRows(assignment_, &sums_, &moments_.num_sums);
  CountAssignment();
  proto_counts_ = counts_;
  proto_sums_ = sums_;
  DeriveAggregates();
}

void FairKMState::SumRows(const cluster::Assignment& assignment,
                          data::AlignedVector* sums,
                          std::vector<std::vector<double>>* num_sums) const {
  const size_t k = static_cast<size_t>(k_);
  sums->assign(k * stride_, 0.0);
  // Resize the outer vector once, .assign() the inner ones so repeated
  // Resets reuse their capacity.
  num_sums->resize(sensitive_->numeric.size());
  for (std::vector<double>& row : *num_sums) row.assign(k, 0.0);
  const size_t chunk_rows = ResidencyChunkRows(stride_);
  for (size_t base = 0; base < n_; base += chunk_rows) {
    const size_t end = std::min(n_, base + chunk_rows);
    for (size_t i = base; i < end; ++i) {
      const size_t c = static_cast<size_t>(assignment[i]);
      const double* row = store_->Row(i);
      double* acc = sums->data() + c * stride_;
      for (size_t j = 0; j < d_; ++j) acc[j] += row[j];
      for (size_t a = 0; a < num_sums->size(); ++a) {
        (*num_sums)[a][c] += sensitive_->numeric[a].values[i];
      }
    }
    store_->EvictRows(base, end);
  }
}

void FairKMState::CountAssignment() {
  const size_t k = static_cast<size_t>(k_);
  counts_.assign(k, 0);
  moments_.cat_counts.resize(sensitive_->categorical.size());
  for (size_t a = 0; a < moments_.cat_counts.size(); ++a) {
    moments_.cat_counts[a].assign(
        k * static_cast<size_t>(sensitive_->categorical[a].cardinality), 0);
  }
  for (size_t i = 0; i < n_; ++i) {
    const size_t c = static_cast<size_t>(assignment_[i]);
    ++counts_[c];
    for (size_t a = 0; a < moments_.cat_counts.size(); ++a) {
      const auto& attr = sensitive_->categorical[a];
      ++moments_.cat_counts[a][c * static_cast<size_t>(attr.cardinality) +
                               static_cast<size_t>(attr.codes[i])];
    }
  }
}

void FairKMState::DeriveAggregates() {
  const size_t k = static_cast<size_t>(k_);
  // The norm caches hold exactly the kernels::Dot that Move computes.
  sum_norms_.resize(k);
  proto_sum_norms_.resize(k);
  for (size_t c = 0; c < k; ++c) {
    const double* s = sums_.data() + c * stride_;
    const double* p = proto_sums_.data() + c * stride_;
    sum_norms_[c] = kernels::Dot(s, s, stride_);
    proto_sum_norms_[c] = kernels::Dot(p, p, stride_);
  }
  const size_t num_cat = sensitive_->categorical.size();
  moments_.cat_u2.resize(num_cat);
  moments_.cat_uq.resize(num_cat);
  moments_.cat_q2.resize(num_cat);
  for (size_t a = 0; a < num_cat; ++a) {
    const auto& attr = sensitive_->categorical[a];
    double q2 = 0.0;
    for (int s = 0; s < attr.cardinality; ++s) {
      q2 += attr.dataset_fractions[s] * attr.dataset_fractions[s];
    }
    moments_.cat_q2[a] = q2;
    moments_.cat_u2[a].resize(k);
    moments_.cat_uq[a].resize(k);
    for (int c = 0; c < k_; ++c) RecomputeCatMoments(a, c);
  }
  RebuildLaneMirrors();
  SyncAllKMeansFactors();
  if (track_bounds_) {
    // The fairness tables are a pure function of the counts just derived:
    // the lazy path recomputes them at their next read.
    for (size_t c = 0; c < k; ++c) MarkFairBoundsDirty(c);
    RescanAdditionFactors();
  }
}

void FairKMState::SyncKMeansFactors(size_t c) {
  const size_t cnt = (use_snapshot_ ? proto_counts_ : counts_)[c];
  const double size = static_cast<double>(cnt);
  eff_inv_[c] = cnt == 0 ? 0.0 : 1.0 / size;
  eff_addf_[c] = cnt == 0 ? 0.0 : size / static_cast<double>(cnt + 1);
  eff_remf_[c] = cnt <= 1 ? 0.0 : size / static_cast<double>(cnt - 1);
}

void FairKMState::SyncAllKMeansFactors() {
  const size_t k = static_cast<size_t>(k_);
  eff_inv_.resize(k);
  eff_addf_.resize(k);
  eff_remf_.resize(k);
  for (size_t c = 0; c < k; ++c) SyncKMeansFactors(c);
}

void FairKMState::RebuildLaneMirrors() {
  const size_t k = static_cast<size_t>(k_);
  lane_counts_.resize(sensitive_->categorical.size());
  cat_lanes_.resize(sensitive_->categorical.size());
  num_lanes_.resize(sensitive_->numeric.size());
  for (size_t a = 0; a < lane_counts_.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t m = static_cast<size_t>(attr.cardinality);
    // The per-attribute lane weight w_a * norm_a is fixed for the state's
    // lifetime; DeltaFairnessAllClusters fills the per-point fields.
    cat_lanes_[a].weight =
        attr.weight * (config_.normalize_domain
                           ? 1.0 / static_cast<double>(attr.cardinality)
                           : 1.0);
    const std::vector<int64_t>& counts = moments_.cat_counts[a];
    std::vector<double>& lanes = lane_counts_[a];
    lanes.resize(k * m);
    for (size_t c = 0; c < k; ++c) {
      for (size_t v = 0; v < m; ++v) {
        lanes[v * k + c] = static_cast<double>(counts[c * m + v]);
      }
    }
  }
  lane_sizes_.resize(k);
  lane_scale_before_.resize(k);
  lane_scale_after_.resize(k);
  for (size_t c = 0; c < k; ++c) SyncLaneCluster(c);
}

void FairKMState::SyncLaneCluster(size_t c) {
  const size_t cnt = counts_[c];
  lane_sizes_[c] = static_cast<double>(cnt);
  lane_scale_before_[c] = ClusterScale(config_.weighting, cnt, n_);
  lane_scale_after_[c] = ClusterScale(config_.weighting, cnt + 1, n_);
}

Status FairKMState::Reset(cluster::Assignment initial) {
  FAIRKM_RETURN_NOT_OK(cluster::ValidateAssignment(initial, n_, k_));
  BuildAggregates(std::move(initial));
  // Re-derive the bound bookkeeping from the fresh aggregates (zero drift,
  // recomputed tables) — exactly the state a newly created instance with
  // bound tracking enabled would carry.
  if (track_bounds_) EnableBoundTracking(true);
  return Status::OK();
}

Status FairKMState::AdmitAppended(int to) {
  if (to < 0 || to >= k_) {
    return Status::InvalidArgument("admit target cluster " +
                                   std::to_string(to) + " out of range");
  }
  if (store_->rows() != n_ + 1) {
    return Status::InvalidArgument(
        "AdmitAppended expects the store to hold exactly one appended row "
        "(store has " + std::to_string(store_->rows()) + ", state tracks " +
        std::to_string(n_) + ")");
  }
  if (!sensitive_->empty() && sensitive_->num_rows() != n_ + 1) {
    return Status::InvalidArgument(
        "AdmitAppended expects the sensitive view to hold the appended row");
  }
  const size_t i = n_;
  // Every code is checked before the first write, so a rejected admit
  // leaves the state exactly as it was.
  for (const auto& attr : sensitive_->categorical) {
    const int32_t v = attr.codes[i];
    if (v < 0 || v >= attr.cardinality) {
      return Status::InvalidArgument("admitted row carries code " +
                                     std::to_string(v) +
                                     " outside attribute \"" + attr.name +
                                     "\" cardinality");
    }
  }
  const double* row = store_->Row(i);
  const double norm = kernels::Dot(row, row, stride_);
  point_norms_.push_back(norm);
  total_point_norm_ += norm;
  assignment_.push_back(static_cast<int32_t>(to));
  const size_t ti = static_cast<size_t>(to);
  ++counts_[ti];
  double* acc = sums_.data() + ti * stride_;
  for (size_t j = 0; j < d_; ++j) acc[j] += row[j];
  sum_norms_[ti] = kernels::Dot(acc, acc, stride_);
  const size_t k = static_cast<size_t>(k_);
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t v = static_cast<size_t>(attr.codes[i]);
    ++moments_.cat_counts[a][ti * attr.cardinality + v];
    lane_counts_[a][v * k + ti] += 1.0;
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    moments_.num_sums[a][ti] += sensitive_->numeric[a].values[i];
  }
  n_ = store_->rows();
  SyncLaneCluster(ti);  // The other scale rows follow n in RefreshDatasetStats.
  if (!use_snapshot_) SyncKMeansFactors(ti);
  return Status::OK();
}

Status FairKMState::RetireSwapped(size_t r) {
  if (r >= n_) {
    return Status::InvalidArgument("retire row " + std::to_string(r) +
                                   " out of range (n = " + std::to_string(n_) +
                                   ")");
  }
  if (store_->rows() != n_) {
    return Status::InvalidArgument(
        "RetireSwapped must run BEFORE the store shrinks (store has " +
        std::to_string(store_->rows()) + " rows, state tracks " +
        std::to_string(n_) + ")");
  }
  if (n_ == 1) {
    return Status::InvalidArgument(
        "cannot retire the last remaining point (the optimizer needs a "
        "non-empty point set)");
  }
  const size_t ci = static_cast<size_t>(assignment_[r]);
  const double* row = store_->Row(r);
  double* acc = sums_.data() + ci * stride_;
  for (size_t j = 0; j < d_; ++j) acc[j] -= row[j];
  sum_norms_[ci] = kernels::Dot(acc, acc, stride_);
  --counts_[ci];
  const size_t k = static_cast<size_t>(k_);
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t v = static_cast<size_t>(attr.codes[r]);
    --moments_.cat_counts[a][ci * attr.cardinality + v];
    lane_counts_[a][v * k + ci] -= 1.0;
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    moments_.num_sums[a][ci] -= sensitive_->numeric[a].values[r];
  }
  total_point_norm_ -= point_norms_[r];
  const size_t last = n_ - 1;
  assignment_[r] = assignment_[last];
  assignment_.pop_back();
  point_norms_[r] = point_norms_[last];
  point_norms_.pop_back();
  --n_;
  SyncLaneCluster(ci);  // The other scale rows follow n in RefreshDatasetStats.
  if (!use_snapshot_) SyncKMeansFactors(ci);
  return Status::OK();
}

void FairKMState::RefreshDatasetStats() {
  DeriveAggregates();
  if (track_bounds_) EnableBoundTracking(true);
}

Status FairKMState::RebuildFromStore(cluster::Assignment initial) {
  if (store_->empty()) {
    return Status::InvalidArgument("point store must not be empty");
  }
  if (store_->cols() != d_) {
    return Status::InvalidArgument("store feature width changed");
  }
  FAIRKM_RETURN_NOT_OK(
      cluster::ValidateAssignment(initial, store_->rows(), k_));
  FAIRKM_RETURN_NOT_OK(sensitive_->Validate(store_->rows()));
  n_ = store_->rows();
  // Dropping the norm cache forces BuildAggregates down the same chunked
  // from-scratch pass a fresh Create runs, so total_point_norm_ carries the
  // canonical summation order — the bit-identical-oracle half of Flush().
  point_norms_.clear();
  BuildAggregates(std::move(initial));
  if (track_bounds_) EnableBoundTracking(true);
  return Status::OK();
}

void FairKMState::RecomputeCatMoments(size_t a, int c) {
  const auto& attr = sensitive_->categorical[a];
  const int m = attr.cardinality;
  const int64_t* counts =
      moments_.cat_counts[a].data() + static_cast<size_t>(c) * m;
  const double size = static_cast<double>(counts_[static_cast<size_t>(c)]);
  kernels::CatMoments(counts, attr.dataset_fractions.data(),
                      static_cast<size_t>(m), size,
                      &moments_.cat_u2[a][static_cast<size_t>(c)],
                      &moments_.cat_uq[a][static_cast<size_t>(c)]);
}

void FairKMState::RecomputeFairBounds(int c) const {
  const size_t ci = static_cast<size_t>(c);
  const size_t cnt = counts_[ci];
  // The lane rows hold ClusterScale(cnt) / ClusterScale(cnt + 1) and the
  // lane descriptors w_a * norm_a, the very values this would recompute.
  const double scale_before = lane_scale_before_[ci];
  const double scale_ins_after = lane_scale_after_[ci];
  const double scale_rem_after =
      cnt >= 1 ? ClusterScale(config_.weighting, cnt - 1, n_) : 0.0;
  double rem = 0.0, ins = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t m = static_cast<size_t>(attr.cardinality);
    const double wn = cat_lanes_[a].weight;
    double rem_min = 0.0, ins_min = 0.0;
    kernels::CatDeltaBounds(moments_.cat_counts[a].data() + ci * m,
                            attr.dataset_fractions.data(), m,
                            static_cast<double>(cnt), moments_.cat_u2[a][ci],
                            moments_.cat_uq[a][ci], moments_.cat_q2[a],
                            scale_before, scale_rem_after, scale_ins_after,
                            delta_scratch_rem_.data(),
                            delta_scratch_ins_.data(), &rem_min, &ins_min);
    double* rem_row = cat_rem_delta_[a].data() + ci * m;
    double* ins_col = cat_ins_delta_[a].data() + ci;
    const size_t k = static_cast<size_t>(k_);
    for (size_t v = 0; v < m; ++v) {
      rem_row[v] = wn * delta_scratch_rem_[v];
      ins_col[v * k] = wn * delta_scratch_ins_[v];
    }
    ins += wn * ins_min;
    // The removal row of an empty cluster is undefined (and unused): no
    // point is assigned there.
    if (cnt >= 1) rem += wn * rem_min;
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double u = moments_.num_sums[a][ci] -
                     static_cast<double>(cnt) * attr.dataset_mean;
    // scale_after * u_after^2 - scale_before * u^2 >= -scale_before * u^2
    // for any moved value (the after-term is a non-negative scale times a
    // square).
    const double piece = -attr.weight * scale_before * u * u;
    ins += piece;
    if (cnt >= 1) rem += piece;
  }
  fair_rem_bound_[ci] = rem;
  fair_ins_bound_[ci] = ins;
}

double FairKMState::FairRemovalDelta(size_t i) const {
  FAIRKM_DCHECK(track_bounds_);
  SyncFairBounds();
  const int from = assignment_[i];
  const size_t fi = static_cast<size_t>(from);
  double total = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    total += cat_rem_delta_[a][fi * static_cast<size_t>(attr.cardinality) +
                               static_cast<size_t>(attr.codes[i])];
  }
  const size_t c_from = counts_[fi];
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double u =
        moments_.num_sums[a][fi] - static_cast<double>(c_from) * mean;
    const double u_after = u - x + mean;
    total += attr.weight *
             (ClusterScale(config_.weighting, c_from - 1, n_) * u_after * u_after -
              ClusterScale(config_.weighting, c_from, n_) * u * u);
  }
  return total;
}

void FairKMState::FairInsertionDeltaAllClusters(size_t i, double* out) const {
  FAIRKM_DCHECK(track_bounds_);
  SyncFairBounds();
  const size_t k = static_cast<size_t>(k_);
  // Attribute by attribute, one contiguous k-row each: lane c accumulates
  // 0.0 + row_0[c] + row_1[c] + ..., the per-candidate lookup sum. The
  // restrict-qualified rows let the compiler run the lanes as vectors.
  double* __restrict lanes = out;
  for (size_t c = 0; c < k; ++c) lanes[c] = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const double* __restrict row =
        cat_ins_delta_[a].data() +
        static_cast<size_t>(sensitive_->categorical[a].codes[i]) * k;
    for (size_t c = 0; c < k; ++c) lanes[c] += row[c];
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double* sums = moments_.num_sums[a].data();
    for (size_t c = 0; c < k; ++c) {
      lanes[c] += attr.weight *
                  NumInsertionTerm(sums[c], lane_sizes_[c], attr.dataset_mean,
                                   attr.values[i], lane_scale_before_[c],
                                   lane_scale_after_[c]);
    }
  }
}

void FairKMState::MarkFairBoundsDirty(size_t c) {
  if (fair_dirty_[c] == 0) {
    fair_dirty_[c] = 1;
    ++fair_dirty_count_;
  }
}

void FairKMState::FlushFairBounds() const {
  for (int c = 0; c < k_; ++c) {
    uint8_t& dirty = fair_dirty_[static_cast<size_t>(c)];
    if (dirty == 0) continue;
    RecomputeFairBounds(c);
    dirty = 0;
  }
  fair_dirty_count_ = 0;
  RescanInsertionBounds();
}

void FairKMState::RescanInsertionBounds() const {
  ins_best_ = std::numeric_limits<double>::infinity();
  ins_second_ = std::numeric_limits<double>::infinity();
  ins_best_cluster_ = -1;
  for (int c = 0; c < k_; ++c) {
    const double v = fair_ins_bound_[static_cast<size_t>(c)];
    if (v < ins_best_) {
      ins_second_ = ins_best_;
      ins_best_ = v;
      ins_best_cluster_ = c;
    } else if (v < ins_second_) {
      ins_second_ = v;
    }
  }
  if (k_ < 2) ins_second_ = 0.0;  // No insertion candidate exists at all.
}

void FairKMState::RescanAdditionFactors() {
  addf_best_ = std::numeric_limits<double>::infinity();
  addf_second_ = std::numeric_limits<double>::infinity();
  addf_best_cluster_ = -1;
  for (int c = 0; c < k_; ++c) {
    const double f = eff_addf_[static_cast<size_t>(c)];
    if (f < addf_best_) {
      addf_second_ = addf_best_;
      addf_best_ = f;
      addf_best_cluster_ = c;
    } else if (f < addf_second_) {
      addf_second_ = f;
    }
  }
  if (k_ < 2) addf_second_ = 0.0;
}

void FairKMState::AccumulateDrift(int c, double displacement) {
  drift_[static_cast<size_t>(c)] += displacement;
}

void FairKMState::AccumulateMaxStep(double displacement) {
  max_step_sum_ += displacement;
}

void FairKMState::EnableBoundTracking(bool enable) {
  track_bounds_ = enable;
  if (!enable) {
    drift_.clear();
    cat_rem_delta_.clear();
    cat_ins_delta_.clear();
    delta_scratch_rem_.clear();
    delta_scratch_ins_.clear();
    fair_rem_bound_.clear();
    fair_ins_bound_.clear();
    fair_dirty_.clear();
    fair_dirty_count_ = 0;
    return;
  }
  drift_.assign(static_cast<size_t>(k_), 0.0);
  max_step_sum_ = 0.0;
  ++bound_epoch_;
  const size_t num_cat = sensitive_->categorical.size();
  cat_rem_delta_.resize(num_cat);
  cat_ins_delta_.resize(num_cat);
  size_t max_card = 0;
  for (size_t a = 0; a < num_cat; ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t cells =
        static_cast<size_t>(k_) * static_cast<size_t>(attr.cardinality);
    cat_rem_delta_[a].assign(cells, 0.0);
    cat_ins_delta_[a].assign(cells, 0.0);
    max_card = std::max(max_card, static_cast<size_t>(attr.cardinality));
  }
  delta_scratch_rem_.assign(max_card, 0.0);
  delta_scratch_ins_.assign(max_card, 0.0);
  fair_rem_bound_.assign(static_cast<size_t>(k_), 0.0);
  fair_ins_bound_.assign(static_cast<size_t>(k_), 0.0);
  fair_dirty_.assign(static_cast<size_t>(k_), 0);
  fair_dirty_count_ = 0;
  for (int c = 0; c < k_; ++c) RecomputeFairBounds(c);
  RescanInsertionBounds();
  RescanAdditionFactors();
}

double FairKMState::DistanceToMean(size_t i, const double* sums, double count) const {
  // Store rows carry the same first d_ coordinates as the source matrix
  // (padding lanes are untouched here), so this stays bit-identical to a
  // matrix read.
  const double* row = store_->Row(i);
  const double inv = 1.0 / count;
  double total = 0.0;
  for (size_t j = 0; j < d_; ++j) {
    const double diff = row[j] - sums[j] * inv;
    total += diff * diff;
  }
  return total;
}

double FairKMState::CachedDistanceToMean(size_t i, const double* sums,
                                         double sum_norm, double count) const {
  const double* row = store_->Row(i);
  const double dot = kernels::Dot(row, sums, stride_);
  const double inv = 1.0 / count;
  const double dist = point_norms_[i] - 2.0 * dot * inv + sum_norm * inv * inv;
  // The expanded form can cancel to a small negative where the true distance
  // is ~0; clamp so a point on its centroid never reports a fake gain.
  return dist > 0.0 ? dist : 0.0;
}

double FairKMState::DeltaKMeans(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from) return 0.0;
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  const data::AlignedVector& sums = use_snapshot_ ? proto_sums_ : sums_;
  const std::vector<double>& sum_norms =
      use_snapshot_ ? proto_sum_norms_ : sum_norms_;

  double delta = 0.0;
  // Removing i from its cluster: SSE decreases by c/(c-1) * ||x - mu||^2
  // (equivalently the paper's Eqs. 11-12). A singleton cluster's SSE is
  // already 0, so removal contributes nothing.
  const size_t c_from = counts[static_cast<size_t>(from)];
  if (c_from > 1) {
    const double dist = CachedDistanceToMean(
        i, sums.data() + static_cast<size_t>(from) * stride_,
        sum_norms[static_cast<size_t>(from)], static_cast<double>(c_from));
    delta -= static_cast<double>(c_from) / static_cast<double>(c_from - 1) * dist;
  }
  // Adding i to the target: SSE increases by c/(c+1) * ||x - mu||^2
  // (Eqs. 13-14); adding to an empty cluster costs nothing.
  const size_t c_to = counts[static_cast<size_t>(to)];
  if (c_to > 0) {
    const double dist = CachedDistanceToMean(
        i, sums.data() + static_cast<size_t>(to) * stride_,
        sum_norms[static_cast<size_t>(to)], static_cast<double>(c_to));
    delta += static_cast<double>(c_to) / static_cast<double>(c_to + 1) * dist;
  }
  return delta;
}

void FairKMState::DeltaKMeansAllClusters(size_t i, double* out,
                                         double* dists) const {
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  const data::AlignedVector& sums = use_snapshot_ ? proto_sums_ : sums_;
  const std::vector<double>& sum_norms =
      use_snapshot_ ? proto_sum_norms_ : sum_norms_;
  const int from = assignment_[i];
  const double* row = store_->Row(i);
  const double xn = point_norms_[i];
  // The count factors come from the eff_* rows (exactly the quotients the
  // per-candidate expressions would divide out).

  // Pass 1: the k dot products x . S_c as one aligned no-tail GEMV over the
  // k x stride sums matrix (the dispatch-selected kernel backend; everything
  // else is O(k)), then fold each dot into the expanded-form distance in
  // place, optionally exporting the distances for the pruning refresh.
  kernels::GemvAligned(row, sums.data(), static_cast<size_t>(k_), stride_, out);
  for (int c = 0; c < k_; ++c) {
    const size_t cnt = counts[static_cast<size_t>(c)];
    if (cnt == 0) {
      // An empty cluster accepts the point at zero cost; export distance 0
      // so every bound derived from it stays conservative.
      out[c] = 0.0;
      if (dists != nullptr) dists[c] = 0.0;
      continue;
    }
    const double inv = eff_inv_[static_cast<size_t>(c)];
    const double dist = xn - 2.0 * out[c] * inv +
                        sum_norms[static_cast<size_t>(c)] * inv * inv;
    // Same cancellation clamp as CachedDistanceToMean.
    const double clamped = dist > 0.0 ? dist : 0.0;
    out[c] = clamped;
    if (dists != nullptr) dists[c] = clamped;
  }

  // Pass 2: fold the shared removal term into per-candidate deltas.
  const size_t c_from = counts[static_cast<size_t>(from)];
  const double removal =
      c_from > 1 ? -eff_remf_[static_cast<size_t>(from)] * out[from] : 0.0;
  for (int c = 0; c < k_; ++c) {
    if (c == from) {
      out[c] = 0.0;
      continue;
    }
    const size_t cnt = counts[static_cast<size_t>(c)];
    const double addition =
        cnt > 0 ? eff_addf_[static_cast<size_t>(c)] * out[c] : 0.0;
    out[c] = removal + addition;
  }
}

double FairKMState::ReferenceDeltaKMeans(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from) return 0.0;
  const std::vector<size_t>& counts = use_snapshot_ ? proto_counts_ : counts_;
  const data::AlignedVector& sums = use_snapshot_ ? proto_sums_ : sums_;

  double delta = 0.0;
  const size_t c_from = counts[static_cast<size_t>(from)];
  if (c_from > 1) {
    const double dist =
        DistanceToMean(i, sums.data() + static_cast<size_t>(from) * stride_,
                       static_cast<double>(c_from));
    delta -= static_cast<double>(c_from) / static_cast<double>(c_from - 1) * dist;
  }
  const size_t c_to = counts[static_cast<size_t>(to)];
  if (c_to > 0) {
    const double dist = DistanceToMean(i, sums.data() + static_cast<size_t>(to) * stride_,
                                       static_cast<double>(c_to));
    delta += static_cast<double>(c_to) / static_cast<double>(c_to + 1) * dist;
  }
  return delta;
}

void FairKMState::DeltaFairnessAllClusters(size_t i, double* out) const {
  const size_t k = static_cast<size_t>(k_);
  const size_t from = static_cast<size_t>(assignment_[i]);
  if (sensitive_->empty()) {
    std::fill(out, out + k, 0.0);
    return;
  }
  const size_t c_from = counts_[from];
  FAIRKM_DCHECK(c_from >= 1);
  const double size_from = lane_sizes_[from];
  const double scale_from_before = lane_scale_before_[from];
  const double scale_from_after =
      ClusterScale(config_.weighting, c_from - 1, n_);

  // The origin-cluster (removal) half, once per attribute: removal sends
  // u_s -> u_s + q_s - [s=v], so the new moment is
  // U2 + Q2 + 1 + 2 (UQ - u_v - q_v); u_v touches one count.
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const size_t m = static_cast<size_t>(attr.cardinality);
    const size_t v = static_cast<size_t>(attr.codes[i]);
    const double q_v = attr.dataset_fractions[v];
    const double q2 = moments_.cat_q2[a];
    const double u2_from = moments_.cat_u2[a][from];
    const double u_v_from =
        static_cast<double>(moments_.cat_counts[a][from * m + v]) -
        size_from * q_v;
    const double after_from =
        u2_from + q2 + 1.0 +
        2.0 * (moments_.cat_uq[a][from] - u_v_from - q_v);
    kernels::FairCatLane& lane = cat_lanes_[a];  // .weight set at rebuild.
    lane.u2 = moments_.cat_u2[a].data();
    lane.uq = moments_.cat_uq[a].data();
    lane.count_v = lane_counts_[a].data() + v * k;
    lane.q2 = q2;
    lane.q_v = q_v;
    lane.removal = scale_from_after * after_from - scale_from_before * u2_from;
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    // u = T_C - c * mean; removal: u' = u - x + mean.
    const double u_from = moments_.num_sums[a][from] - size_from * mean;
    const double u_from_after = u_from - x + mean;
    kernels::FairNumLane& lane = num_lanes_[a];
    lane.sums = moments_.num_sums[a].data();
    lane.mean = mean;
    lane.x = x;
    lane.weight = attr.weight;
    lane.removal = scale_from_after * u_from_after * u_from_after -
                   scale_from_before * u_from * u_from;
  }
  // The insertion halves: all k candidates as contiguous lanes.
  kernels::FairDeltaLanes(cat_lanes_.data(), cat_lanes_.size(),
                          num_lanes_.data(), num_lanes_.size(),
                          lane_sizes_.data(), lane_scale_before_.data(),
                          lane_scale_after_.data(), k, out);
  out[from] = 0.0;
}

int FairKMState::BestInsertion(const double* x, const int32_t* codes,
                               const double* values, double lambda) const {
  const bool fair = codes != nullptr || values != nullptr;
  double best = 0.0;
  int best_cluster = -1;
  for (int c = 0; c < k_; ++c) {
    const size_t cnt = counts_[static_cast<size_t>(c)];
    if (cnt == 0) continue;
    const double inv = 1.0 / static_cast<double>(cnt);
    const double* s = sums_.data() + static_cast<size_t>(c) * stride_;
    double dist = 0.0;
    for (size_t j = 0; j < d_; ++j) {
      const double diff = x[j] - s[j] * inv;
      dist += diff * diff;
    }
    double cost =
        static_cast<double>(cnt) / static_cast<double>(cnt + 1) * dist;
    if (fair) {
      cost += lambda * FairnessInsertionDelta(sensitive_->categorical,
                                              sensitive_->numeric, moments_,
                                              cnt, n_, config_, codes, values,
                                              c);
    }
    if (best_cluster < 0 || cost < best) {
      best = cost;
      best_cluster = c;
    }
  }
  return best_cluster;
}

void FairKMState::SaveCheckpoint(Checkpoint* out) const {
  out->assignment = assignment_;
  out->sums = sums_;
  out->num_sums = moments_.num_sums;
  out->use_snapshot = use_snapshot_;
  out->proto_counts = proto_counts_;
  out->proto_sums = proto_sums_;
  out->track_bounds = track_bounds_;
  out->drift = drift_;
  out->max_step_sum = max_step_sum_;
}

Status FairKMState::RestoreCheckpoint(const Checkpoint& cp) {
  FAIRKM_RETURN_NOT_OK(cluster::ValidateAssignment(cp.assignment, n_, k_));
  const size_t k = static_cast<size_t>(k_);
  bool fits = cp.sums.size() == k * stride_ &&
              cp.proto_sums.size() == k * stride_ &&
              cp.proto_counts.size() == k &&
              cp.num_sums.size() == sensitive_->numeric.size() &&
              (!cp.track_bounds || cp.drift.size() == k);
  for (const auto& row : cp.num_sums) fits = fits && row.size() == k;
  if (!fits) {
    return Status::InvalidArgument(
        "checkpoint shape does not match this state's points/sensitive/k");
  }
  if (cp.use_snapshot != use_snapshot_ || cp.track_bounds != track_bounds_) {
    return Status::InvalidArgument(
        "checkpoint was taken under different snapshot/bound-tracking modes");
  }
  // The sums are primary, so a recount under the checkpoint's assignment
  // must reproduce them up to the rounding an incremental run accumulates
  // (far below 1e-9 of a column's absolute sum, which sqrt(n sum ||x||^2)
  // bounds): a checkpoint of other data never loads as a plausible model.
  data::AlignedVector sums;
  std::vector<std::vector<double>> num_sums;
  SumRows(cp.assignment, &sums, &num_sums);
  double tol = 1e-9 * std::sqrt(static_cast<double>(n_) * total_point_norm_);
  bool agree = true;
  for (size_t e = 0; e < sums.size(); ++e) {
    agree = agree && std::fabs(cp.sums[e] - sums[e]) <= tol;
  }
  for (size_t a = 0; a < num_sums.size(); ++a) {
    tol = 0.0;
    for (const double v : sensitive_->numeric[a].values) {
      tol += 1e-9 * std::fabs(v);
    }
    for (size_t c = 0; c < k; ++c) {
      agree = agree && std::fabs(cp.num_sums[a][c] - num_sums[a][c]) <= tol;
    }
  }
  if (!agree) {
    return Status::InvalidArgument(
        "checkpoint sums disagree with this state's rows under its assignment");
  }
  assignment_ = cp.assignment;
  sums_ = cp.sums;
  moments_.num_sums = cp.num_sums;
  proto_counts_ = cp.proto_counts;
  proto_sums_ = cp.proto_sums;
  drift_ = cp.drift;
  max_step_sum_ = cp.max_step_sum;
  CountAssignment();
  DeriveAggregates();
  return Status::OK();
}

double FairKMState::ReferenceDeltaFairness(size_t i, int to) const {
  const int from = assignment_[i];
  if (to == from || sensitive_->empty()) return 0.0;
  const size_t c_from = counts_[static_cast<size_t>(from)];
  const size_t c_to = counts_[static_cast<size_t>(to)];
  FAIRKM_DCHECK(c_from >= 1);

  double delta = 0.0;

  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const int m = attr.cardinality;
    const int32_t v = attr.codes[i];
    const int64_t* from_counts =
        moments_.cat_counts[a].data() + static_cast<size_t>(from) * m;
    const int64_t* to_counts =
        moments_.cat_counts[a].data() + static_cast<size_t>(to) * m;
    const double norm =
        config_.normalize_domain ? 1.0 / static_cast<double>(m) : 1.0;

    // Origin cluster: u_s = C_s - c q_s before; after removing i the size is
    // c-1 and C_v drops by one, so u'_s = (C_s - I[s=v]) - (c-1) q_s.
    double before_from = 0.0, after_from = 0.0;
    for (int s = 0; s < m; ++s) {
      const double q = attr.dataset_fractions[s];
      const double cs = static_cast<double>(from_counts[s]);
      const double u = cs - static_cast<double>(c_from) * q;
      const double u_after =
          (cs - (s == v ? 1.0 : 0.0)) - static_cast<double>(c_from - 1) * q;
      before_from += u * u;
      after_from += u_after * u_after;
    }
    // Target cluster: size grows to c+1 and C_v gains one.
    double before_to = 0.0, after_to = 0.0;
    for (int s = 0; s < m; ++s) {
      const double q = attr.dataset_fractions[s];
      const double cs = static_cast<double>(to_counts[s]);
      const double u = cs - static_cast<double>(c_to) * q;
      const double u_after =
          (cs + (s == v ? 1.0 : 0.0)) - static_cast<double>(c_to + 1) * q;
      before_to += u * u;
      after_to += u_after * u_after;
    }
    const double scale_from_before = ClusterScale(config_.weighting, c_from, n_);
    const double scale_from_after = ClusterScale(config_.weighting, c_from - 1, n_);
    const double scale_to_before = ClusterScale(config_.weighting, c_to, n_);
    const double scale_to_after = ClusterScale(config_.weighting, c_to + 1, n_);
    delta += attr.weight * norm *
             ((scale_from_after * after_from - scale_from_before * before_from) +
              (scale_to_after * after_to - scale_to_before * before_to));
  }

  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double t_from = moments_.num_sums[a][static_cast<size_t>(from)];
    const double t_to = moments_.num_sums[a][static_cast<size_t>(to)];
    const double u_from = t_from - static_cast<double>(c_from) * mean;
    const double u_from_after = u_from - x + mean;
    const double u_to = t_to - static_cast<double>(c_to) * mean;
    const double u_to_after = u_to + x - mean;
    delta += attr.weight *
             ((ClusterScale(config_.weighting, c_from - 1, n_) * u_from_after *
                   u_from_after -
               ClusterScale(config_.weighting, c_from, n_) * u_from * u_from) +
              (ClusterScale(config_.weighting, c_to + 1, n_) * u_to_after * u_to_after -
               ClusterScale(config_.weighting, c_to, n_) * u_to * u_to));
  }
  return delta;
}

void FairKMState::Move(size_t i, int to) {
  const int from = assignment_[i];
  if (to == from) return;
  FAIRKM_DCHECK(to >= 0 && to < k_);
  const double* row = store_->Row(i);
  double* from_sums = sums_.data() + static_cast<size_t>(from) * stride_;
  double* to_sums = sums_.data() + static_cast<size_t>(to) * stride_;
  const size_t c_from = counts_[static_cast<size_t>(from)];
  const size_t c_to = counts_[static_cast<size_t>(to)];

  // Live-centroid drift (snapshot mode charges drift at RefreshPrototypes
  // instead, since the delta path reads frozen prototypes): removing x moves
  // mu_from by ||x - mu_from|| / (|C|-1), inserting moves mu_to by
  // ||x - mu_to|| / (|C|+1). Uses the pre-update aggregates.
  if (track_bounds_ && !use_snapshot_) {
    double step_from = 0.0, step_to = 0.0;
    if (c_from > 1) {
      const double dist = CachedDistanceToMean(
          i, from_sums, sum_norms_[static_cast<size_t>(from)],
          static_cast<double>(c_from));
      step_from = std::sqrt(dist) / static_cast<double>(c_from - 1);
      AccumulateDrift(from, step_from);
    }
    if (c_to > 0) {
      const double dist = CachedDistanceToMean(
          i, to_sums, sum_norms_[static_cast<size_t>(to)],
          static_cast<double>(c_to));
      step_to = std::sqrt(dist) / static_cast<double>(c_to + 1);
      AccumulateDrift(to, step_to);
    } else {
      // A refilled empty cluster materializes a centroid anywhere: void
      // every bound instead of charging a drift no finite value covers.
      ++bound_epoch_;
    }
    AccumulateMaxStep(std::max(step_from, step_to));
  }

  for (size_t j = 0; j < d_; ++j) {
    from_sums[j] -= row[j];
    to_sums[j] += row[j];
  }
  sum_norms_[static_cast<size_t>(from)] =
      kernels::Dot(from_sums, from_sums, stride_);
  sum_norms_[static_cast<size_t>(to)] = kernels::Dot(to_sums, to_sums, stride_);
  --counts_[static_cast<size_t>(from)];
  ++counts_[static_cast<size_t>(to)];
  SyncLaneCluster(static_cast<size_t>(from));
  SyncLaneCluster(static_cast<size_t>(to));
  if (!use_snapshot_) {
    SyncKMeansFactors(static_cast<size_t>(from));
    SyncKMeansFactors(static_cast<size_t>(to));
  }
  const size_t k = static_cast<size_t>(k_);
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const int32_t v = attr.codes[i];
    --moments_.cat_counts[a][static_cast<size_t>(from) * attr.cardinality + v];
    ++moments_.cat_counts[a][static_cast<size_t>(to) * attr.cardinality + v];
    double* lane = lane_counts_[a].data() + static_cast<size_t>(v) * k;
    lane[from] -= 1.0;
    lane[to] += 1.0;
    RecomputeCatMoments(a, from);
    RecomputeCatMoments(a, to);
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const double x = sensitive_->numeric[a].values[i];
    moments_.num_sums[a][static_cast<size_t>(from)] -= x;
    moments_.num_sums[a][static_cast<size_t>(to)] += x;
  }
  assignment_[i] = static_cast<int32_t>(to);

  // Fairness move bounds only change for the two clusters whose group
  // counts moved: mark them for the next SyncFairBounds. The addition
  // factors (live mode) are an O(k) rescan.
  if (track_bounds_) {
    MarkFairBoundsDirty(static_cast<size_t>(from));
    MarkFairBoundsDirty(static_cast<size_t>(to));
    if (!use_snapshot_) RescanAdditionFactors();
  }
}

double FairKMState::KMeansTerm() const {
  data::Matrix centroids = Centroids();
  // Same accumulation order as cluster::SumOfSquaredErrors over the source
  // matrix — store rows equal matrix rows in the first d_ lanes — so the
  // value is identical.
  double sse = 0.0;
  const size_t chunk_rows = ResidencyChunkRows(stride_);
  for (size_t base = 0; base < n_; base += chunk_rows) {
    const size_t end = std::min(n_, base + chunk_rows);
    for (size_t i = base; i < end; ++i) {
      sse += data::SquaredDistance(
          store_->Row(i), centroids.Row(static_cast<size_t>(assignment_[i])),
          d_);
    }
    store_->EvictRows(base, end);
  }
  return sse;
}

double FairKMState::KMeansTermCached() const {
  double within = 0.0;
  for (int c = 0; c < k_; ++c) {
    const size_t cnt = counts_[static_cast<size_t>(c)];
    if (cnt == 0) continue;
    within += sum_norms_[static_cast<size_t>(c)] / static_cast<double>(cnt);
  }
  const double sse = total_point_norm_ - within;
  // The difference cancels catastrophically when the data carries a large
  // common offset (both terms ~ n ||offset||^2 while the true SSE is tiny).
  // Falling back to the scratch pass whenever the surviving value is below
  // one millionth of the gross norm bounds the cached result's relative
  // error at ~1e-10 and keeps the O(k) path for realistically scaled data.
  if (!(sse > 1e-6 * total_point_norm_)) return KMeansTerm();
  return sse;
}

double FairKMState::FairnessTerm() const {
  return ComputeFairnessTerm(*sensitive_, assignment_, k_, config_);
}

double FairKMState::FairnessTermCached() const {
  double total = 0.0;
  for (size_t a = 0; a < sensitive_->categorical.size(); ++a) {
    const auto& attr = sensitive_->categorical[a];
    const double norm = config_.normalize_domain
                            ? 1.0 / static_cast<double>(attr.cardinality)
                            : 1.0;
    for (int c = 0; c < k_; ++c) {
      const double scale =
          ClusterScale(config_.weighting, counts_[static_cast<size_t>(c)], n_);
      if (scale == 0.0) continue;
      total += attr.weight * norm * scale *
               moments_.cat_u2[a][static_cast<size_t>(c)];
    }
  }
  for (size_t a = 0; a < sensitive_->numeric.size(); ++a) {
    const auto& attr = sensitive_->numeric[a];
    for (int c = 0; c < k_; ++c) {
      const size_t cnt = counts_[static_cast<size_t>(c)];
      const double scale = ClusterScale(config_.weighting, cnt, n_);
      if (scale == 0.0) continue;
      const double u = moments_.num_sums[a][static_cast<size_t>(c)] -
                       static_cast<double>(cnt) * attr.dataset_mean;
      total += attr.weight * scale * u * u;
    }
  }
  return total;
}

data::Matrix FairKMState::Centroids() const {
  data::Matrix centroids(static_cast<size_t>(k_), d_);
  for (int c = 0; c < k_; ++c) {
    const size_t size = counts_[static_cast<size_t>(c)];
    if (size == 0) continue;
    const double inv = 1.0 / static_cast<double>(size);
    const double* src = sums_.data() + static_cast<size_t>(c) * stride_;
    double* dst = centroids.Row(static_cast<size_t>(c));
    for (size_t j = 0; j < d_; ++j) dst[j] = src[j] * inv;
  }
  return centroids;
}

void FairKMState::EnablePrototypeSnapshot(bool enable) {
  use_snapshot_ = enable;
  if (enable) {
    RefreshPrototypes();
  } else {
    SyncAllKMeansFactors();
  }
}

void FairKMState::RefreshPrototypes() {
  // Snapshot-mode drift: the effective centroids jump from the old prototype
  // to the current live aggregate exactly here, so charge each cluster the
  // exact displacement before overwriting.
  if (track_bounds_ && use_snapshot_) {
    double max_step = 0.0;
    for (int c = 0; c < k_; ++c) {
      const size_t ci = static_cast<size_t>(c);
      const size_t old_cnt = proto_counts_[ci];
      const size_t new_cnt = counts_[ci];
      if (new_cnt == 0) continue;  // No centroid to target; addf covers it.
      double step = 0.0;
      if (old_cnt == 0) {
        ++bound_epoch_;  // Refilled: see Move.
      } else {
        const double* old_sums = proto_sums_.data() + ci * stride_;
        const double* new_sums = sums_.data() + ci * stride_;
        const double old_inv = 1.0 / static_cast<double>(old_cnt);
        const double new_inv = 1.0 / static_cast<double>(new_cnt);
        double total = 0.0;
        for (size_t j = 0; j < d_; ++j) {
          const double diff = new_sums[j] * new_inv - old_sums[j] * old_inv;
          total += diff * diff;
        }
        step = total > 0.0 ? std::sqrt(total) : 0.0;
      }
      if (step > 0.0) AccumulateDrift(c, step);
      if (step > max_step) max_step = step;
    }
    if (max_step > 0.0) AccumulateMaxStep(max_step);
  }
  proto_counts_ = counts_;
  proto_sums_ = sums_;
  proto_sum_norms_ = sum_norms_;
  if (use_snapshot_) SyncAllKMeansFactors();
  if (track_bounds_ && use_snapshot_) RescanAdditionFactors();
}

}  // namespace core
}  // namespace fairkm
