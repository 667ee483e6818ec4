// Vectorized kernel backends for the FairKM hot loops.
//
// The optimizer's per-candidate cost is dominated by two primitive shapes:
//   * dense dot products / blocked GEMV — the x . S_c pass over the k x d
//     sums matrix inside DeltaKMeansAllClusters and the expanded-form
//     distance in DeltaKMeans,
//   * the per-(attribute, cluster) fairness moments sum_s u_s^2 and
//     sum_s u_s q_s (u_s = |C_s| - |C| q_s) recomputed on every Move.
//
// Each primitive exists in a scalar reference backend (plain loops, compiled
// for the baseline ISA) and, on x86-64 hosts whose compiler supports it, an
// AVX2/FMA backend compiled in its own translation unit with -mavx2 -mfma.
// Which backend runs is decided once at startup by runtime CPU detection
// (cpuid via __builtin_cpu_supports), so a single binary runs correctly on
// non-AVX hosts; setting the environment variable FAIRKM_FORCE_SCALAR to a
// non-empty value other than "0" (or calling SetActiveBackend) pins the
// scalar backend — CI runs one job this way so the scalar dispatch path
// stays exercised.
//
// Contract between backends:
//   * Dot/Gemv agree with the scalar backend to floating-point reassociation
//     only (the SIMD versions use multiple accumulators + FMA); callers
//     tolerate ~1e-9 relative differences, and tests/simd_kernels_test.cc
//     enforces that bound across dims 1..33 and unaligned bases.
//   * CatMoments is BIT-FOR-BIT identical across backends: both use the same
//     4-lane blocked accumulation with an identical reduction tree and no
//     FMA contraction (the kernel TUs build with -ffp-contract=off), so the
//     fairness aggregates — and therefore the optimizer trajectory of the
//     fairness term — do not depend on the dispatched backend.
//   * FairDeltaLanes and PruneGateLanes are BIT-FOR-BIT identical across
//     backends: each lane runs the scalar expression (for FairDeltaLanes the
//     core/objective.h insertion formula) with the same separate mul/add
//     sequence, so the sweep's fairness deltas and pruning verdicts — and
//     its trajectory and pruned counts — do not depend on the dispatched
//     backend.
//   * SilhouetteSums is BIT-FOR-BIT identical across backends too: every
//     probe-row distance sums its squared differences in ascending dimension
//     order (separate multiply and add, no FMA), and every per-cluster sum
//     adds its distances in ascending row order, so the silhouette
//     (metrics/quality.h) does not depend on the dispatched backend.

#ifndef FAIRKM_CORE_KERNELS_KERNELS_H_
#define FAIRKM_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace fairkm {
namespace core {
namespace kernels {

/// \brief One categorical attribute's inputs to Backend::FairDeltaLanes
/// for one point whose value on the attribute is v: k-lane rows (one entry
/// per candidate cluster) plus the attribute's per-point constants.
struct FairCatLane {
  const double* u2;       ///< [k] sum_s u_s^2 of each cluster.
  const double* uq;       ///< [k] sum_s u_s q_s of each cluster.
  const double* count_v;  ///< [k] each cluster's count of value v.
  double q2;              ///< sum_s q_s^2 (dataset constant).
  double q_v;             ///< Dataset fraction of value v.
  double weight;          ///< w_a * norm_a (Eqs. 4 and 23).
  double removal;         ///< The origin-cluster half, priced once.
};

/// \brief One numeric attribute's inputs to Backend::FairDeltaLanes.
struct FairNumLane {
  const double* sums;  ///< [k] each cluster's value sum.
  double mean;         ///< Dataset mean.
  double x;            ///< The point's value.
  double weight;       ///< w_a.
  double removal;      ///< The origin-cluster half, priced once.
};

/// \brief Inputs of Backend::PruneGateLanes for one point: k-lane rows over
/// the candidate clusters plus the point's scalars (core/pruning.h).
struct PruneGateInput {
  const double* lb0;        ///< [k] distance to each centroid at refresh.
  const double* drift_ref;  ///< [k] each cluster's drift at refresh.
  const double* drift;      ///< [k] each cluster's drift now.
  const double* addf;       ///< [k] |C|/(|C|+1) (0 for an empty cluster).
  const double* insertion;  ///< [k] fairness insertion deltas (un-scaled).
  size_t k;
  size_t from;              ///< The point's own cluster (never a candidate).
  double lambda;
  double removal_ub;        ///< K-Means removal gain upper bound.
  double fair_removal;      ///< lambda * fairness removal delta.
  double point_norm;        ///< ||x||^2, for the rounding margin.
  double rel_slack;         ///< Margin: rel_slack * (magnitudes) + abs_slack.
  double abs_slack;
  double threshold;         ///< -min_improvement.
};

/// \brief One kernel implementation set. All pointers are non-null.
struct Backend {
  const char* name;

  /// sum_j a[j] * b[j] over n doubles (no alignment requirement).
  double (*Dot)(const double* a, const double* b, size_t n);

  /// Blocked row-major GEMV: out[r] = dot(x, mat + r * cols) for r in
  /// [0, rows). One contiguous pass over the rows x cols matrix.
  void (*Gemv)(const double* x, const double* mat, size_t rows, size_t cols,
               double* out);

  /// Aligned fast-path GEMV over a lane-padded store (data/point_store.h):
  /// `x`, `mat` and every row of `mat` must be 32-byte aligned and `cols`
  /// must be a multiple of 4 (the padded stride, with zero-filled padding —
  /// the padded products are exact zeros). Same accuracy contract as Gemv
  /// (reassociation tolerated across backends), but free of tail handling
  /// and unaligned loads. DeltaKMeansAllClusters routes through this.
  void (*GemvAligned)(const double* x, const double* mat, size_t rows,
                      size_t cols, double* out);

  /// Fairness moments for one (attribute, cluster) pair: with
  /// u_s = counts[s] - size * fractions[s], writes *u2 = sum_s u_s^2 and
  /// *uq = sum_s u_s * fractions[s]. Bit-for-bit stable across backends.
  void (*CatMoments)(const int64_t* counts, const double* fractions, size_t m,
                     double size, double* u2, double* uq);

  /// Bounds-update kernel for the pruning engine (core/pruning.h): fills the
  /// per-value fairness move-delta tables of one (attribute, cluster) pair.
  /// With u_v = counts[v] - size * fractions[v] and the precomputed moments
  /// u2 = sum u^2, uq = sum u q, q2 = sum q^2, writes for every value v
  ///   rem[v] = scale_rem_after * (u2+q2+1 + 2*(uq - u_v - fractions[v]))
  ///            - scale_before * u2      (fairness change of removing a
  ///                                      point with value v from C)
  ///   ins[v] = scale_ins_after * (u2+q2+1 - 2*(uq - u_v + fractions[v]))
  ///            - scale_before * u2      (change of inserting one)
  /// (un-weighted, un-normalized) and returns the minima over v in
  /// *rem_min / *ins_min. Every table entry is computed elementwise with the
  /// same mul/add sequence in both backends (no accumulation, no FMA
  /// contraction) and min is order-insensitive, so the tables — and the
  /// pruning decisions derived from them — are bit-for-bit
  /// backend-independent.
  void (*CatDeltaBounds)(const int64_t* counts, const double* fractions,
                         size_t m, double size, double u2, double uq,
                         double q2, double scale_before,
                         double scale_rem_after, double scale_ins_after,
                         double* rem, double* ins, double* rem_min,
                         double* ins_min);

  /// Batched fairness move deltas of one point against all k clusters
  /// (lanes c = 0..k-1): with the per-cluster size, ClusterScale(size) and
  /// ClusterScale(size + 1) rows `sizes`, `scale_before`, `scale_after`,
  ///   out[c] = sum_a cat[a].weight * (cat[a].removal + CatInsertionTerm(
  ///              u2[c], uq[c], q2, count_v[c], sizes[c], q_v,
  ///              scale_before[c], scale_after[c]))
  ///          + sum_a num[a].weight * (num[a].removal + NumInsertionTerm(
  ///              sums[c], sizes[c], mean, x, scale_before[c],
  ///              scale_after[c]))
  /// (core/objective.h), accumulated from 0.0 in attribute order,
  /// categorical first. Every lane runs the scalar operation sequence
  /// exactly (separate mul/add, no FMA), so each out[c] is bit-for-bit
  /// backend-independent and equal to the per-candidate formula.
  void (*FairDeltaLanes)(const FairCatLane* cat, size_t num_cat,
                         const FairNumLane* num, size_t num_num,
                         const double* sizes, const double* scale_before,
                         const double* scale_after, size_t k, double* out);

  /// The pruning gate's per-candidate stage (core/pruning.h): true when
  /// some candidate c != from has
  ///   total - margin < threshold, where
  ///   lb = lb0[c] - (drift[c] - drift_ref[c]),  lbc = lb > 0 ? lb : 0,
  ///   a = addf[c] * lbc * lbc,  f = lambda * insertion[c],
  ///   total = a - removal_ub + fair_removal + f,
  ///   margin = rel_slack * (a + removal_ub + |fair_removal| + |f| +
  ///            point_norm) + abs_slack
  /// (left-to-right association). Elementwise with separate mul/add, so
  /// every lane, and therefore the verdict, is bit-for-bit
  /// backend-independent.
  bool (*PruneGateLanes)(const PruneGateInput& in);

  /// Silhouette distance sums for one tile of `num_probes` (1..8) probe
  /// rows: for every row i of the row-major rows x cols matrix `mat`, in
  /// ascending order, adds sqrt(sum_j (probes[l][j] - mat[i][j])^2) into
  /// sums[l * k + labels[i]] for each probe l. The inner sum runs over j in
  /// ascending order with a separate multiply and add; `sums` is
  /// accumulated into, not cleared. No alignment requirement.
  void (*SilhouetteSums)(const double* const* probes, size_t num_probes,
                         const double* mat, size_t rows, size_t cols,
                         const int32_t* labels, size_t k, double* sums);
};

/// \brief Probe rows per SilhouetteSums tile.
inline constexpr size_t kSilhouetteTile = 8;

/// \brief The portable reference backend (always available).
const Backend& ScalarBackend();

/// \brief The AVX2/FMA backend, or nullptr when it was not compiled in or
/// the running CPU lacks AVX2/FMA.
const Backend* Avx2Backend();

/// \brief Pure dispatch decision: best available backend, or scalar when
/// `force_scalar` is set. Exposed so tests can exercise both branches
/// without mutating the process environment.
const Backend& DispatchBackend(bool force_scalar);

/// \brief True when FAIRKM_FORCE_SCALAR is set to a non-empty value other
/// than "0" in the environment.
bool ScalarForcedByEnv();

/// \brief The backend all kernel wrappers route through. Resolved on first
/// use from cpuid + FAIRKM_FORCE_SCALAR; thread-safe to read concurrently.
const Backend& ActiveBackend();

/// \brief Overrides the active backend (benches/tests/CLI flag). Passing
/// nullptr re-runs the dispatch decision on next use. Not thread-safe
/// against concurrent kernel execution; call before spawning workers.
void SetActiveBackend(const Backend* backend);

inline double Dot(const double* a, const double* b, size_t n) {
  return ActiveBackend().Dot(a, b, n);
}

inline void Gemv(const double* x, const double* mat, size_t rows, size_t cols,
                 double* out) {
  ActiveBackend().Gemv(x, mat, rows, cols, out);
}

inline void GemvAligned(const double* x, const double* mat, size_t rows,
                        size_t cols, double* out) {
  ActiveBackend().GemvAligned(x, mat, rows, cols, out);
}

inline void CatMoments(const int64_t* counts, const double* fractions,
                       size_t m, double size, double* u2, double* uq) {
  ActiveBackend().CatMoments(counts, fractions, m, size, u2, uq);
}

inline void CatDeltaBounds(const int64_t* counts, const double* fractions,
                           size_t m, double size, double u2, double uq,
                           double q2, double scale_before,
                           double scale_rem_after, double scale_ins_after,
                           double* rem, double* ins, double* rem_min,
                           double* ins_min) {
  ActiveBackend().CatDeltaBounds(counts, fractions, m, size, u2, uq, q2,
                                 scale_before, scale_rem_after,
                                 scale_ins_after, rem, ins, rem_min, ins_min);
}

inline bool PruneGateLanes(const PruneGateInput& in) {
  return ActiveBackend().PruneGateLanes(in);
}

inline void FairDeltaLanes(const FairCatLane* cat, size_t num_cat,
                           const FairNumLane* num, size_t num_num,
                           const double* sizes, const double* scale_before,
                           const double* scale_after, size_t k, double* out) {
  ActiveBackend().FairDeltaLanes(cat, num_cat, num, num_num, sizes,
                                 scale_before, scale_after, k, out);
}

}  // namespace kernels
}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_KERNELS_KERNELS_H_
