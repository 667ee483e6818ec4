// AVX2/FMA backend. This translation unit — and only this one — is compiled
// with -mavx2 -mfma (see src/CMakeLists.txt), so the rest of the binary
// stays runnable on baseline x86-64; nothing here executes unless
// kernels_dispatch.cc's cpuid check passed.
//
// Dot/Gemv use multi-accumulator FMA loops (reassociated relative to the
// scalar backend; callers tolerate 1e-9). CatMoments deliberately avoids FMA
// and mirrors the scalar backend's 4-lane blocked accumulation and reduction
// tree exactly, so the fairness moments are bit-for-bit backend-independent.
// SilhouetteSums and FairDeltaLanes likewise avoid FMA and keep the scalar
// per-lane operation orders, so they are bit-for-bit backend-independent
// as well.

#include "core/kernels/kernels.h"

#if defined(FAIRKM_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "core/objective.h"

namespace fairkm {
namespace core {
namespace kernels {
namespace {

// Lanes (l0+l2, l1+l3) -> (l0+l2)+(l1+l3): the reduction order
// CatMomentsScalar replays in plain code.
inline double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
  }
  if (j + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j), acc0);
    j += 4;
  }
  double total = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) total += a[j] * b[j];
  return total;
}

// Two matrix rows share every load of x, halving the x-stream traffic of the
// row-at-a-time formulation; the odd row falls back to the plain dot.
void GemvAvx2(const double* x, const double* mat, size_t rows, size_t cols,
              double* out) {
  size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* m0 = mat + r * cols;
    const double* m1 = m0 + cols;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      const __m256d xv = _mm256_loadu_pd(x + j);
      acc0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(m0 + j), acc0);
      acc1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(m1 + j), acc1);
    }
    double d0 = HorizontalSum(acc0);
    double d1 = HorizontalSum(acc1);
    for (; j < cols; ++j) {
      d0 += x[j] * m0[j];
      d1 += x[j] * m1[j];
    }
    out[r] = d0;
    out[r + 1] = d1;
  }
  if (r < rows) out[r] = DotAvx2(x, mat + r * cols, cols);
}

// Aligned fast path for the lane-padded point store: every row starts
// 32-byte aligned and cols % 4 == 0, so the whole pass is aligned loads with
// no scalar tail. Two matrix rows share every load of x, as in GemvAvx2.
void GemvAlignedAvx2(const double* x, const double* mat, size_t rows,
                     size_t cols, double* out) {
  size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* m0 = mat + r * cols;
    const double* m1 = m0 + cols;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; j += 4) {
      const __m256d xv = _mm256_load_pd(x + j);
      acc0 = _mm256_fmadd_pd(xv, _mm256_load_pd(m0 + j), acc0);
      acc1 = _mm256_fmadd_pd(xv, _mm256_load_pd(m1 + j), acc1);
    }
    out[r] = HorizontalSum(acc0);
    out[r + 1] = HorizontalSum(acc1);
  }
  if (r < rows) {
    const double* m0 = mat + r * cols;
    __m256d acc = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; j += 4) {
      acc = _mm256_fmadd_pd(_mm256_load_pd(x + j), _mm256_load_pd(m0 + j), acc);
    }
    out[r] = HorizontalSum(acc);
  }
}

void CatMomentsAvx2(const int64_t* counts, const double* fractions, size_t m,
                    double size, double* u2, double* uq) {
  const __m256d sz = _mm256_set1_pd(size);
  __m256d u2v = _mm256_setzero_pd();
  __m256d uqv = _mm256_setzero_pd();
  size_t s = 0;
  for (; s + 4 <= m; s += 4) {
    const __m256d q = _mm256_loadu_pd(fractions + s);
    // No packed epi64->pd conversion below AVX-512; four scalar converts.
    const __m256d c = _mm256_set_pd(static_cast<double>(counts[s + 3]),
                                    static_cast<double>(counts[s + 2]),
                                    static_cast<double>(counts[s + 1]),
                                    static_cast<double>(counts[s]));
    const __m256d u = _mm256_sub_pd(c, _mm256_mul_pd(sz, q));
    u2v = _mm256_add_pd(u2v, _mm256_mul_pd(u, u));
    uqv = _mm256_add_pd(uqv, _mm256_mul_pd(u, q));
  }
  double u2_tail = 0.0, uq_tail = 0.0;
  for (; s < m; ++s) {
    const double q = fractions[s];
    const double u = static_cast<double>(counts[s]) - size * q;
    u2_tail += u * u;
    uq_tail += u * q;
  }
  *u2 = HorizontalSum(u2v) + u2_tail;
  *uq = HorizontalSum(uqv) + uq_tail;
}

// Pruning-engine delta tables: the elementwise mul/add sequence matches
// CatDeltaBoundsScalar exactly (this TU builds with -ffp-contract=off, so no
// FMA contraction sneaks in), making every table entry — and the min
// reductions, which are order-insensitive — bit-for-bit backend-stable.
void CatDeltaBoundsAvx2(const int64_t* counts, const double* fractions,
                        size_t m, double size, double u2, double uq,
                        double q2, double scale_before,
                        double scale_rem_after, double scale_ins_after,
                        double* rem, double* ins, double* rem_min,
                        double* ins_min) {
  const double base = u2 + q2 + 1.0;
  const double before = scale_before * u2;
  const __m256d sz = _mm256_set1_pd(size);
  const __m256d basev = _mm256_set1_pd(base);
  const __m256d beforev = _mm256_set1_pd(before);
  const __m256d uqv = _mm256_set1_pd(uq);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d s_rem = _mm256_set1_pd(scale_rem_after);
  const __m256d s_ins = _mm256_set1_pd(scale_ins_after);
  __m256d rminv = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d iminv = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  size_t v = 0;
  for (; v + 4 <= m; v += 4) {
    const __m256d q = _mm256_loadu_pd(fractions + v);
    const __m256d c = _mm256_set_pd(static_cast<double>(counts[v + 3]),
                                    static_cast<double>(counts[v + 2]),
                                    static_cast<double>(counts[v + 1]),
                                    static_cast<double>(counts[v]));
    const __m256d u = _mm256_sub_pd(c, _mm256_mul_pd(sz, q));
    // r = s_rem * (base + 2*(uq - u - q)) - before (same op order as scalar).
    const __m256d r = _mm256_sub_pd(
        _mm256_mul_pd(s_rem,
                      _mm256_add_pd(basev,
                                    _mm256_mul_pd(two, _mm256_sub_pd(
                                        _mm256_sub_pd(uqv, u), q)))),
        beforev);
    // s = s_ins * (base - 2*(uq - u + q)) - before.
    const __m256d s = _mm256_sub_pd(
        _mm256_mul_pd(s_ins,
                      _mm256_sub_pd(basev,
                                    _mm256_mul_pd(two, _mm256_add_pd(
                                        _mm256_sub_pd(uqv, u), q)))),
        beforev);
    _mm256_storeu_pd(rem + v, r);
    _mm256_storeu_pd(ins + v, s);
    rminv = _mm256_min_pd(rminv, r);
    iminv = _mm256_min_pd(iminv, s);
  }
  const __m128d r_pair = _mm_min_pd(_mm256_castpd256_pd128(rminv),
                                    _mm256_extractf128_pd(rminv, 1));
  const __m128d i_pair = _mm_min_pd(_mm256_castpd256_pd128(iminv),
                                    _mm256_extractf128_pd(iminv, 1));
  double rmin = _mm_cvtsd_f64(_mm_min_sd(r_pair, _mm_unpackhi_pd(r_pair, r_pair)));
  double imin = _mm_cvtsd_f64(_mm_min_sd(i_pair, _mm_unpackhi_pd(i_pair, i_pair)));
  for (; v < m; ++v) {
    const double q = fractions[v];
    const double u = static_cast<double>(counts[v]) - size * q;
    const double r = scale_rem_after * (base + 2.0 * (uq - u - q)) - before;
    const double s = scale_ins_after * (base - 2.0 * (uq - u + q)) - before;
    rem[v] = r;
    ins[v] = s;
    if (r < rmin) rmin = r;
    if (s < imin) imin = s;
  }
  *rem_min = m == 0 ? 0.0 : rmin;
  *ins_min = m == 0 ? 0.0 : imin;
}

// Four candidate clusters per vector. Each lane replays
// FairDeltaLanesScalar's sequence — CatInsertionTerm / NumInsertionTerm
// (core/objective.h), then weight * (removal + term) added into the lane's
// running delta — as separate mul/add/sub intrinsics (this TU builds with
// -ffp-contract=off), so every lane matches the scalar backend bit for bit.
// Lanes past the last full vector run the scalar helpers directly.
void FairDeltaLanesAvx2(const FairCatLane* cat, size_t num_cat,
                        const FairNumLane* num, size_t num_num,
                        const double* sizes, const double* scale_before,
                        const double* scale_after, size_t k, double* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const __m256d size = _mm256_loadu_pd(sizes + c);
    const __m256d sb = _mm256_loadu_pd(scale_before + c);
    const __m256d sa = _mm256_loadu_pd(scale_after + c);
    __m256d delta = _mm256_setzero_pd();
    for (size_t a = 0; a < num_cat; ++a) {
      const FairCatLane& l = cat[a];
      const __m256d u2 = _mm256_loadu_pd(l.u2 + c);
      const __m256d q_v = _mm256_set1_pd(l.q_v);
      // u_v = count_v - size * q_v.
      const __m256d u_v = _mm256_sub_pd(_mm256_loadu_pd(l.count_v + c),
                                        _mm256_mul_pd(size, q_v));
      // after = u2 + q2 + 1 - 2 * (uq - u_v + q_v).
      const __m256d after = _mm256_sub_pd(
          _mm256_add_pd(_mm256_add_pd(u2, _mm256_set1_pd(l.q2)), one),
          _mm256_mul_pd(two, _mm256_add_pd(
                                 _mm256_sub_pd(_mm256_loadu_pd(l.uq + c), u_v),
                                 q_v)));
      const __m256d term =
          _mm256_sub_pd(_mm256_mul_pd(sa, after), _mm256_mul_pd(sb, u2));
      delta = _mm256_add_pd(
          delta, _mm256_mul_pd(_mm256_set1_pd(l.weight),
                               _mm256_add_pd(_mm256_set1_pd(l.removal), term)));
    }
    for (size_t a = 0; a < num_num; ++a) {
      const FairNumLane& l = num[a];
      const __m256d mean = _mm256_set1_pd(l.mean);
      // u = sum - size * mean; u_after = u + x - mean.
      const __m256d u = _mm256_sub_pd(_mm256_loadu_pd(l.sums + c),
                                      _mm256_mul_pd(size, mean));
      const __m256d u_after =
          _mm256_sub_pd(_mm256_add_pd(u, _mm256_set1_pd(l.x)), mean);
      const __m256d term =
          _mm256_sub_pd(_mm256_mul_pd(_mm256_mul_pd(sa, u_after), u_after),
                        _mm256_mul_pd(_mm256_mul_pd(sb, u), u));
      delta = _mm256_add_pd(
          delta, _mm256_mul_pd(_mm256_set1_pd(l.weight),
                               _mm256_add_pd(_mm256_set1_pd(l.removal), term)));
    }
    _mm256_storeu_pd(out + c, delta);
  }
  for (; c < k; ++c) {
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

// Four candidates per vector, each lane replaying PruneGateLanesScalar's
// operation sequence. _mm256_max_pd(lb, 0) returns its second operand
// unless lb > 0, which is exactly `lb > 0 ? lb : 0` (NaN and -0.0
// included); the ordered less-than compare is false on NaN like the scalar
// `<`. Tail lanes run the scalar expression.
bool PruneGateLanesAvx2(const PruneGateInput& in) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d lambda = _mm256_set1_pd(in.lambda);
  const __m256d removal_ub = _mm256_set1_pd(in.removal_ub);
  const __m256d fair_removal = _mm256_set1_pd(in.fair_removal);
  const double fair_removal_mag = std::fabs(in.fair_removal);
  const __m256d fair_removal_magv = _mm256_set1_pd(fair_removal_mag);
  const __m256d norm = _mm256_set1_pd(in.point_norm);
  const __m256d rel = _mm256_set1_pd(in.rel_slack);
  const __m256d abs_slack = _mm256_set1_pd(in.abs_slack);
  const __m256d threshold = _mm256_set1_pd(in.threshold);
  bool might_improve = false;
  size_t c = 0;
  for (; c + 4 <= in.k; c += 4) {
    const __m256d lb = _mm256_sub_pd(
        _mm256_loadu_pd(in.lb0 + c),
        _mm256_sub_pd(_mm256_loadu_pd(in.drift + c),
                      _mm256_loadu_pd(in.drift_ref + c)));
    const __m256d lbc = _mm256_max_pd(lb, zero);
    const __m256d addition_lb =
        _mm256_mul_pd(_mm256_mul_pd(_mm256_loadu_pd(in.addf + c), lbc), lbc);
    const __m256d fair_insertion =
        _mm256_mul_pd(lambda, _mm256_loadu_pd(in.insertion + c));
    const __m256d total = _mm256_add_pd(
        _mm256_add_pd(_mm256_sub_pd(addition_lb, removal_ub), fair_removal),
        fair_insertion);
    const __m256d magnitudes = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(addition_lb, removal_ub),
                          fair_removal_magv),
            _mm256_andnot_pd(sign, fair_insertion)),
        norm);
    const __m256d margin =
        _mm256_add_pd(_mm256_mul_pd(rel, magnitudes), abs_slack);
    const __m256d improves = _mm256_cmp_pd(_mm256_sub_pd(total, margin),
                                           threshold, _CMP_LT_OQ);
    int bits = _mm256_movemask_pd(improves);  // Bit j: candidate c + j.
    if (in.from >= c && in.from < c + 4) bits &= ~(1 << (in.from - c));
    might_improve |= bits != 0;
  }
  for (; c < in.k; ++c) {
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

// One row's squared differences against the 8-lane probe tile at dimension
// j, added into the row's two accumulators (lanes 0-3 and 4-7): sub, mul,
// add as three separate roundings, exactly as SilhouetteSumsScalar does it.
inline void AccumulateSquaredDiff(__m256d lo, __m256d hi, const double* x,
                                  __m256d* acc_lo, __m256d* acc_hi) {
  const __m256d xv = _mm256_broadcast_sd(x);
  const __m256d d_lo = _mm256_sub_pd(lo, xv);
  const __m256d d_hi = _mm256_sub_pd(hi, xv);
  *acc_lo = _mm256_add_pd(*acc_lo, _mm256_mul_pd(d_lo, d_lo));
  *acc_hi = _mm256_add_pd(*acc_hi, _mm256_mul_pd(d_hi, d_hi));
}

// Silhouette distance sums over a probe tile transposed to structure of
// arrays (tile[j * 8 + l] = probes[l][j]), so one broadcast of a row value
// feeds all 8 probes. Four rows are register-blocked — 8 independent
// accumulator chains, each summing over ascending j like the scalar loop —
// then square-rooted in-vector and scatter-added in row order, so every
// per-cluster sum sees its distances in the scalar backend's order.
void SilhouetteSumsAvx2(const double* const* probes, size_t num_probes,
                        const double* mat, size_t rows, size_t cols,
                        const int32_t* labels, size_t k, double* sums) {
  // Lanes past num_probes stay zero; their distances are never added.
  double* tile = new double[cols * kSilhouetteTile]();
  for (size_t l = 0; l < num_probes; ++l) {
    for (size_t j = 0; j < cols; ++j) tile[j * kSilhouetteTile + l] = probes[l][j];
  }
  double dist[4][kSilhouetteTile];
  auto scatter = [&](size_t first_row, size_t count) {
    for (size_t r = 0; r < count; ++r) {
      double* row_sums = sums + static_cast<size_t>(labels[first_row + r]);
      for (size_t l = 0; l < num_probes; ++l) row_sums[l * k] += dist[r][l];
    }
  };
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = mat + i * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    __m256d a0l = _mm256_setzero_pd(), a0h = _mm256_setzero_pd();
    __m256d a1l = _mm256_setzero_pd(), a1h = _mm256_setzero_pd();
    __m256d a2l = _mm256_setzero_pd(), a2h = _mm256_setzero_pd();
    __m256d a3l = _mm256_setzero_pd(), a3h = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; ++j) {
      const __m256d lo = _mm256_loadu_pd(tile + j * kSilhouetteTile);
      const __m256d hi = _mm256_loadu_pd(tile + j * kSilhouetteTile + 4);
      AccumulateSquaredDiff(lo, hi, r0 + j, &a0l, &a0h);
      AccumulateSquaredDiff(lo, hi, r1 + j, &a1l, &a1h);
      AccumulateSquaredDiff(lo, hi, r2 + j, &a2l, &a2h);
      AccumulateSquaredDiff(lo, hi, r3 + j, &a3l, &a3h);
    }
    _mm256_storeu_pd(dist[0], _mm256_sqrt_pd(a0l));
    _mm256_storeu_pd(dist[0] + 4, _mm256_sqrt_pd(a0h));
    _mm256_storeu_pd(dist[1], _mm256_sqrt_pd(a1l));
    _mm256_storeu_pd(dist[1] + 4, _mm256_sqrt_pd(a1h));
    _mm256_storeu_pd(dist[2], _mm256_sqrt_pd(a2l));
    _mm256_storeu_pd(dist[2] + 4, _mm256_sqrt_pd(a2h));
    _mm256_storeu_pd(dist[3], _mm256_sqrt_pd(a3l));
    _mm256_storeu_pd(dist[3] + 4, _mm256_sqrt_pd(a3h));
    scatter(i, 4);
  }
  for (; i < rows; ++i) {
    const double* row = mat + i * cols;
    __m256d acc_lo = _mm256_setzero_pd(), acc_hi = _mm256_setzero_pd();
    for (size_t j = 0; j < cols; ++j) {
      AccumulateSquaredDiff(_mm256_loadu_pd(tile + j * kSilhouetteTile),
                            _mm256_loadu_pd(tile + j * kSilhouetteTile + 4),
                            row + j, &acc_lo, &acc_hi);
    }
    _mm256_storeu_pd(dist[0], _mm256_sqrt_pd(acc_lo));
    _mm256_storeu_pd(dist[0] + 4, _mm256_sqrt_pd(acc_hi));
    scatter(i, 1);
  }
  delete[] tile;
}

const Backend kAvx2Backend = {"avx2-fma",      DotAvx2,
                              GemvAvx2,        GemvAlignedAvx2,
                              CatMomentsAvx2,  CatDeltaBoundsAvx2,
                              FairDeltaLanesAvx2, PruneGateLanesAvx2,
                              SilhouetteSumsAvx2};

}  // namespace

// Called by kernels_dispatch.cc after its cpuid check succeeded.
const Backend& Avx2BackendImpl() { return kAvx2Backend; }

}  // namespace kernels
}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_HAVE_AVX2
