#include "serve/assign_batch.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/kernels/kernels.h"
#include "core/objective.h"

namespace fairkm {
namespace serve {

namespace {

// Points scored per padded-scratch refill. Bounds the scratch block to
// kBlockRows x stride doubles regardless of request size while keeping the
// row copies streaming-friendly.
constexpr size_t kBlockRows = 256;

}  // namespace

Status ValidateAssignInputs(const ModelSnapshot& snapshot,
                            const data::Matrix& new_points,
                            const data::SensitiveView* new_sensitive) {
  const core::ModelExport& m = snapshot.model();
  if (new_points.cols() != m.d) {
    return Status::InvalidArgument(
        "new points have " + std::to_string(new_points.cols()) +
        " features, the published model has " + std::to_string(m.d));
  }
  FAIRKM_RETURN_NOT_OK(data::ValidateFinite(new_points, "request points"));
  if (new_sensitive == nullptr) return Status::OK();
  return data::ValidateRequestView(m.categorical, m.numeric, *new_sensitive,
                                   new_points.rows());
}

void AssignRows(const ModelSnapshot& snapshot, const data::Matrix& new_points,
                size_t begin, size_t end,
                const data::SensitiveView* new_sensitive,
                AssignScratch* scratch, cluster::Assignment* out) {
  const core::ModelExport& m = snapshot.model();
  const size_t d = m.d;
  const size_t stride = m.stride;
  const size_t k = static_cast<size_t>(m.k);
  // One backend resolution per call, not two per point.
  const core::kernels::Backend& kb = core::kernels::ActiveBackend();

  AssignScratch local;
  if (scratch == nullptr) scratch = &local;
  // Zero-copy fast path: when the request rows are already in the kernel
  // layout — row width equal to the padded stride (cols a multiple of the
  // SIMD lane) and the storage base 32-byte aligned, which makes every row
  // aligned since stride * sizeof(double) is a multiple of 32 — the kernels
  // stream the caller's matrix directly and the padded scratch is never
  // touched. The copy path below produces bit-identical scores (same values
  // through the same kernels), so the two paths are interchangeable.
  const bool kernel_ready =
      d == stride && begin < end &&
      reinterpret_cast<uintptr_t>(new_points.Row(begin)) %
              data::kKernelAlignment ==
          0;
  const size_t block_rows = std::min(kBlockRows, end - begin);
  // assign() zero-fills, establishing the padded-lane zeros once; the block
  // loop below overwrites only the data columns, so padding stays exact
  // zeros across refills.
  scratch->padded.assign(kernel_ready ? 0 : block_rows * stride, 0.0);
  scratch->dots.assign(k, 0.0);
  scratch->codes.assign(m.categorical.size(), 0);
  scratch->values.assign(m.numeric.size(), 0.0);
  // Per-cluster invariants hoisted out of the point loop: the candidate list
  // (empty clusters are never insertion targets, ascending ids preserve the
  // smallest-id tie-break) and the |C|/(|C|+1) scaling — one division per
  // cluster per call instead of per point. Same division as the scalar path,
  // so the product below stays bit-identical.
  scratch->cand.clear();
  scratch->scale.assign(k, 0.0);
  for (size_t c = 0; c < k; ++c) {
    const size_t cnt = m.counts[c];
    if (cnt == 0) continue;
    scratch->cand.push_back(c);
    scratch->scale[c] =
        static_cast<double>(cnt) / static_cast<double>(cnt + 1);
  }

  for (size_t block = begin; block < end; block += block_rows) {
    const size_t block_end = std::min(end, block + block_rows);
    if (!kernel_ready) {
      for (size_t i = block; i < block_end; ++i) {
        const double* src = new_points.Row(i);
        double* dst = scratch->padded.data() + (i - block) * stride;
        for (size_t j = 0; j < d; ++j) dst[j] = src[j];
      }
    }
    const double* base = kernel_ready
                             ? new_points.Row(block)
                             : scratch->padded.data();
    for (size_t i = block; i < block_end; ++i) {
      const double* x = base + (i - block) * stride;
      const double x_norm = kb.Dot(x, x, stride);
      kb.GemvAligned(x, m.centroids.data(), k, stride, scratch->dots.data());
      if (new_sensitive != nullptr) {
        for (size_t a = 0; a < scratch->codes.size(); ++a) {
          scratch->codes[a] = new_sensitive->categorical[a].codes[i];
        }
        for (size_t a = 0; a < scratch->values.size(); ++a) {
          scratch->values[a] = new_sensitive->numeric[a].values[i];
        }
      }
      double best = 0.0;
      int best_cluster = -1;
      for (const size_t c : scratch->cand) {
        // Expanded form; the cancellation can dip a tiny true distance below
        // zero, clamp like the training-path kernels do.
        double dist = x_norm - 2.0 * scratch->dots[c] + m.centroid_norms[c];
        if (dist < 0.0) dist = 0.0;
        double cost = scratch->scale[c] * dist;
        if (new_sensitive != nullptr) {
          cost += m.lambda * core::FairnessInsertionDelta(
                                m.categorical, m.numeric, m.moments,
                                m.counts[c], m.num_rows, m.config,
                                scratch->codes.data(), scratch->values.data(),
                                static_cast<int>(c));
        }
        // Strict < with first-wins: ties break toward the smallest cluster
        // id, exactly like the scalar Assign path.
        if (best_cluster < 0 || cost < best) {
          best = cost;
          best_cluster = static_cast<int>(c);
        }
      }
      (*out)[i] = best_cluster;
    }
  }
}

Result<cluster::Assignment> AssignBatch(const ModelSnapshot& snapshot,
                                        const data::Matrix& new_points,
                                        const data::SensitiveView* new_sensitive,
                                        AssignScratch* scratch) {
  FAIRKM_RETURN_NOT_OK(ValidateAssignInputs(snapshot, new_points, new_sensitive));
  const size_t rows = new_points.rows();
  cluster::Assignment out(rows, 0);
  if (rows == 0) return out;
  if (!snapshot.has_candidates()) {
    return Status::InvalidArgument(
        "trained model has no non-empty cluster to assign to");
  }
  AssignRows(snapshot, new_points, 0, rows, new_sensitive, scratch, &out);
  return out;
}

}  // namespace serve
}  // namespace fairkm
