// Scalar reference backend. Compiled for the baseline ISA with
// -ffp-contract=off (see src/CMakeLists.txt): Dot/Gemv keep the exact
// sequential accumulation the PR-2 kernels used, and CatMoments uses the
// 4-lane blocked order that the AVX2 backend reproduces bit-for-bit.

#include "core/kernels/kernels.h"

#include <cmath>

#include "core/objective.h"

namespace fairkm {
namespace core {
namespace kernels {
namespace {

double DotScalar(const double* a, const double* b, size_t n) {
  double total = 0.0;
  for (size_t j = 0; j < n; ++j) total += a[j] * b[j];
  return total;
}

void GemvScalar(const double* x, const double* mat, size_t rows, size_t cols,
                double* out) {
  const double* row = mat;
  for (size_t r = 0; r < rows; ++r, row += cols) {
    out[r] = DotScalar(x, row, cols);
  }
}

// The scalar backend has no alignment to exploit; the aligned entry point is
// the plain GEMV. (The padded trailing zeros contribute exact 0.0 terms, so
// the result matches an unpadded evaluation bit for bit.)
void GemvAlignedScalar(const double* x, const double* mat, size_t rows,
                       size_t cols, double* out) {
  GemvScalar(x, mat, rows, cols, out);
}

// 4-lane blocked accumulation with the ((l0+l2)+(l1+l3))+tail reduction —
// the exact operation sequence the AVX2 backend performs with vector lanes,
// element-wise IEEE mul/add only. Keep the two implementations in lockstep:
// tests/simd_kernels_test.cc asserts bit-for-bit equality.
void CatMomentsScalar(const int64_t* counts, const double* fractions, size_t m,
                      double size, double* u2, double* uq) {
  double u2l[4] = {0.0, 0.0, 0.0, 0.0};
  double uql[4] = {0.0, 0.0, 0.0, 0.0};
  size_t s = 0;
  for (; s + 4 <= m; s += 4) {
    for (int l = 0; l < 4; ++l) {
      const double q = fractions[s + static_cast<size_t>(l)];
      const double u =
          static_cast<double>(counts[s + static_cast<size_t>(l)]) - size * q;
      u2l[l] += u * u;
      uql[l] += u * q;
    }
  }
  double u2_tail = 0.0, uq_tail = 0.0;
  for (; s < m; ++s) {
    const double q = fractions[s];
    const double u = static_cast<double>(counts[s]) - size * q;
    u2_tail += u * u;
    uq_tail += u * q;
  }
  *u2 = ((u2l[0] + u2l[2]) + (u2l[1] + u2l[3])) + u2_tail;
  *uq = ((uql[0] + uql[2]) + (uql[1] + uql[3])) + uq_tail;
}

// Pruning-engine delta tables. Strictly elementwise (one mul/add sequence
// per value, no accumulation), so the AVX2 backend reproduces every entry —
// and therefore every min — bit for bit.
void CatDeltaBoundsScalar(const int64_t* counts, const double* fractions,
                          size_t m, double size, double u2, double uq,
                          double q2, double scale_before,
                          double scale_rem_after, double scale_ins_after,
                          double* rem, double* ins, double* rem_min,
                          double* ins_min) {
  const double base = u2 + q2 + 1.0;
  const double before = scale_before * u2;
  double rmin = 0.0, imin = 0.0;
  for (size_t v = 0; v < m; ++v) {
    const double q = fractions[v];
    const double u = static_cast<double>(counts[v]) - size * q;
    const double r = scale_rem_after * (base + 2.0 * (uq - u - q)) - before;
    const double s = scale_ins_after * (base - 2.0 * (uq - u + q)) - before;
    rem[v] = r;
    ins[v] = s;
    if (v == 0 || r < rmin) rmin = r;
    if (v == 0 || s < imin) imin = s;
  }
  *rem_min = rmin;
  *ins_min = imin;
}

// Lane by lane, attribute by attribute: the per-candidate fairness delta of
// each cluster through the shared core/objective.h insertion formula.
void FairDeltaLanesScalar(const FairCatLane* cat, size_t num_cat,
                          const FairNumLane* num, size_t num_num,
                          const double* sizes, const double* scale_before,
                          const double* scale_after, size_t k, double* out) {
  for (size_t c = 0; c < k; ++c) {
    double delta = 0.0;
    for (size_t a = 0; a < num_cat; ++a) {
      const FairCatLane& l = cat[a];
      delta += l.weight *
               (l.removal + CatInsertionTerm(l.u2[c], l.uq[c], l.q2,
                                             l.count_v[c], sizes[c], l.q_v,
                                             scale_before[c], scale_after[c]));
    }
    for (size_t a = 0; a < num_num; ++a) {
      const FairNumLane& l = num[a];
      delta += l.weight *
               (l.removal + NumInsertionTerm(l.sums[c], sizes[c], l.mean, l.x,
                                             scale_before[c], scale_after[c]));
    }
    out[c] = delta;
  }
}

// Candidate by candidate, branch-free (no early exit).
bool PruneGateLanesScalar(const PruneGateInput& in) {
  const double fair_removal_mag = std::fabs(in.fair_removal);
  bool might_improve = false;
  for (size_t c = 0; c < in.k; ++c) {
    const double lb = in.lb0[c] - (in.drift[c] - in.drift_ref[c]);
    const double lbc = lb > 0.0 ? lb : 0.0;
    const double addition_lb = in.addf[c] * lbc * lbc;
    const double fair_insertion = in.lambda * in.insertion[c];
    const double total =
        addition_lb - in.removal_ub + in.fair_removal + fair_insertion;
    const double margin =
        in.rel_slack * (addition_lb + in.removal_ub + fair_removal_mag +
                        std::fabs(fair_insertion) + in.point_norm) +
        in.abs_slack;
    might_improve |= (total - margin < in.threshold) & (c != in.from);
  }
  return might_improve;
}

// Probe by probe, row by row: the plain silhouette distance loop. Each
// distance accumulates (a - b)^2 over ascending j; the AVX2 backend keeps
// that per-lane order, so the sums match bit for bit.
void SilhouetteSumsScalar(const double* const* probes, size_t num_probes,
                          const double* mat, size_t rows, size_t cols,
                          const int32_t* labels, size_t k, double* sums) {
  for (size_t l = 0; l < num_probes; ++l) {
    const double* probe = probes[l];
    double* probe_sums = sums + l * k;
    const double* row = mat;
    for (size_t i = 0; i < rows; ++i, row += cols) {
      double sq = 0.0;
      for (size_t j = 0; j < cols; ++j) {
        const double diff = probe[j] - row[j];
        sq += diff * diff;
      }
      probe_sums[static_cast<size_t>(labels[i])] += std::sqrt(sq);
    }
  }
}

const Backend kScalarBackend = {"scalar",         DotScalar,
                                GemvScalar,       GemvAlignedScalar,
                                CatMomentsScalar, CatDeltaBoundsScalar,
                                FairDeltaLanesScalar, PruneGateLanesScalar,
                                SilhouetteSumsScalar};

}  // namespace

const Backend& ScalarBackend() { return kScalarBackend; }

}  // namespace kernels
}  // namespace core
}  // namespace fairkm
