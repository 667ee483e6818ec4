#include "metrics/quality.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernels/kernels.h"
#include "metrics/hungarian.h"

namespace fairkm {
namespace metrics {
namespace {

// Mean silhouette of the given probe points, each evaluated against every
// row. The distance sums come from the dispatched SilhouetteSums kernel in
// tiles of kSilhouetteTile probes. A probe's distance to itself is exactly
// +0.0 and leaves its sums unchanged, so no row needs skipping.
double SilhouetteOverProbes(const data::Matrix& points,
                            const cluster::Assignment& assignment, int k,
                            const std::vector<size_t>& probes) {
  namespace kernels = core::kernels;
  const kernels::Backend& backend = kernels::ActiveBackend();
  const std::vector<size_t> sizes = cluster::ClusterSizes(assignment, k);
  const size_t uk = static_cast<size_t>(k);
  double total = 0.0;
  std::vector<double> dist_sums(kernels::kSilhouetteTile * uk);
  const double* tile_rows[kernels::kSilhouetteTile];
  for (size_t first = 0; first < probes.size();
       first += kernels::kSilhouetteTile) {
    const size_t tile =
        std::min(kernels::kSilhouetteTile, probes.size() - first);
    for (size_t l = 0; l < tile; ++l) {
      tile_rows[l] = points.Row(probes[first + l]);
    }
    std::fill(dist_sums.begin(), dist_sums.end(), 0.0);
    backend.SilhouetteSums(tile_rows, tile, points.Row(0), points.rows(),
                           points.cols(), assignment.data(), uk,
                           dist_sums.data());
    for (size_t l = 0; l < tile; ++l) {
      const double* dist_sum = dist_sums.data() + l * uk;
      const size_t own = static_cast<size_t>(assignment[probes[first + l]]);
      // Singleton: silhouette defined as 0.
      if (sizes[own] <= 1) continue;
      const double a = dist_sum[own] / static_cast<double>(sizes[own] - 1);
      double b = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < uk; ++c) {
        if (c == own || sizes[c] == 0) continue;
        b = std::min(b, dist_sum[c] / static_cast<double>(sizes[c]));
      }
      // Single non-empty cluster: silhouette undefined; counts as 0.
      if (!std::isfinite(b)) continue;
      const double denom = std::max(a, b);
      total += denom > 0.0 ? (b - a) / denom : 0.0;
    }
  }
  return probes.empty() ? 0.0 : total / static_cast<double>(probes.size());
}

}  // namespace

double ClusteringObjective(const data::Matrix& points,
                           const cluster::Assignment& assignment, int k) {
  data::Matrix centroids = cluster::ComputeCentroids(points, assignment, k);
  return cluster::SumOfSquaredErrors(points, assignment, centroids);
}

double SilhouetteScore(const data::Matrix& points,
                       const cluster::Assignment& assignment, int k,
                       const SilhouetteOptions& options) {
  const size_t n = points.rows();
  if (n == 0) return 0.0;
  std::vector<size_t> probes;
  if (n <= options.max_exact_rows || options.sample_size >= n) {
    probes.resize(n);
    for (size_t i = 0; i < n; ++i) probes[i] = i;
  } else {
    Rng rng(options.seed);
    probes = rng.SampleWithoutReplacement(n, options.sample_size);
  }
  return SilhouetteOverProbes(points, assignment, k, probes);
}

Result<double> CentroidDeviation(const data::Matrix& centroids,
                                 const data::Matrix& reference_centroids) {
  if (centroids.cols() != reference_centroids.cols()) {
    return Status::InvalidArgument("centroid dimensionality mismatch");
  }
  if (centroids.rows() != reference_centroids.rows()) {
    return Status::InvalidArgument("centroid count mismatch (DevC compares equal k)");
  }
  const size_t k = centroids.rows();
  data::Matrix cost(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      cost.At(i, j) = data::SquaredDistance(centroids.Row(i),
                                            reference_centroids.Row(j),
                                            centroids.cols());
    }
  }
  std::vector<int> matching;
  return HungarianAssign(cost, &matching);
}

Result<double> ObjectPairDeviation(const cluster::Assignment& a, int k_a,
                                   const cluster::Assignment& b, int k_b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("assignments cover different row counts");
  }
  const size_t n = a.size();
  if (n < 2) return 0.0;
  // Contingency table n_ij, marginals a_i, b_j.
  std::vector<int64_t> table(static_cast<size_t>(k_a) * k_b, 0);
  std::vector<int64_t> ma(static_cast<size_t>(k_a), 0);
  std::vector<int64_t> mb(static_cast<size_t>(k_b), 0);
  for (size_t i = 0; i < n; ++i) {
    ++table[static_cast<size_t>(a[i]) * k_b + static_cast<size_t>(b[i])];
    ++ma[static_cast<size_t>(a[i])];
    ++mb[static_cast<size_t>(b[i])];
  }
  auto choose2 = [](int64_t x) { return x * (x - 1) / 2; };
  int64_t sum_table = 0, sum_a = 0, sum_b = 0;
  for (int64_t v : table) sum_table += choose2(v);
  for (int64_t v : ma) sum_a += choose2(v);
  for (int64_t v : mb) sum_b += choose2(v);
  // Pairs together in one clustering but apart in the other.
  const int64_t disagreements = (sum_a - sum_table) + (sum_b - sum_table);
  const int64_t total_pairs = choose2(static_cast<int64_t>(n));
  return static_cast<double>(disagreements) / static_cast<double>(total_pairs);
}

}  // namespace metrics
}  // namespace fairkm
