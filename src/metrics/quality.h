// Clustering-quality evaluation measures (paper §5.2.1): CO, SH, DevC, DevO.
//
// These depend only on the task attributes N (and, for the deviation pair,
// on a reference S-blind clustering).

#ifndef FAIRKM_METRICS_QUALITY_H_
#define FAIRKM_METRICS_QUALITY_H_

#include <cstdint>

#include "cluster/types.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/matrix.h"

namespace fairkm {
namespace metrics {

/// \brief Clustering objective CO (Eq. 24): SSE to cluster centroids. Lower
/// is better.
double ClusteringObjective(const data::Matrix& points,
                           const cluster::Assignment& assignment, int k);

/// \brief Silhouette configuration.
struct SilhouetteOptions {
  /// Above this row count the mean silhouette is estimated over a uniform
  /// sample of points (each sampled point still measured against all rows).
  size_t max_exact_rows = 4000;
  size_t sample_size = 2000;
  uint64_t seed = 17;
};

/// \brief Silhouette score SH in [-1, 1]; higher is better. Euclidean
/// distances over N; singleton clusters score 0 (sklearn convention).
/// The probe-to-row distance sums run on the dispatched
/// core::kernels::Backend::SilhouetteSums kernel in tiles of 8 probes; that
/// kernel is bit-for-bit identical across backends and keeps the plain
/// per-probe loop's summation order, so the score is the same to the bit
/// whichever backend runs and equals the scalar oracle in
/// tests/testlib/brute_force.h.
double SilhouetteScore(const data::Matrix& points,
                       const cluster::Assignment& assignment, int k,
                       const SilhouetteOptions& options = {});

/// \brief Centroid-based deviation DevC between a clustering's centroids and
/// a reference clustering's centroids: the minimum-cost perfect matching
/// (Hungarian) under squared Euclidean cost. Identical centroid sets yield
/// 0. The paper describes DevC only loosely ("sum of pair-wise dot-products");
/// since its Table 5 reports DevC = 0 for the reference against itself, the
/// measure must be a matching distance — see DESIGN.md §3.4.
Result<double> CentroidDeviation(const data::Matrix& centroids,
                                 const data::Matrix& reference_centroids);

/// \brief Object-pairwise deviation DevO: the fraction of object pairs on
/// whose co-membership the two clusterings disagree (1 - Rand index),
/// computed exactly in O(n + k_a k_b) via the contingency table.
Result<double> ObjectPairDeviation(const cluster::Assignment& a, int k_a,
                                   const cluster::Assignment& b, int k_b);

}  // namespace metrics
}  // namespace fairkm

#endif  // FAIRKM_METRICS_QUALITY_H_
