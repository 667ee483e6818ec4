#include "core/objective.h"

namespace fairkm {
namespace core {

// The deviation of cluster C on categorical attribute S (Eq. 2-6) can be
// rewritten with counts. Let c = |C|, C_s = |{X in C : X.S = s}|, q_s =
// Fr_X(s) and u_s = C_s - c * q_s. Then
//   (Fr_C(s) - Fr_X(s))^2 = (u_s / c)^2,
// and the weighted cluster term W(c) * sum_s (u_s/c)^2 becomes
//   scale(c) * sum_s u_s^2
// with scale(c) = 1/n^2 for W(c) = (c/n)^2, 1/(n c) for W(c) = c/n and 1/c^2
// for W(c) = 1. The same holds for numeric attributes (Eq. 22) with
// u = sum_{X in C} X.S - c * mean_X(S). This count-based form is what both
// the scratch evaluation below and the O(1)/O(m) move deltas rely on;
// ClusterScale (objective.h) implements scale(c).
double ComputeFairnessTerm(const data::SensitiveView& sensitive,
                           const cluster::Assignment& assignment, int k,
                           const FairnessTermConfig& config) {
  const size_t n = assignment.size();
  if (n == 0 || sensitive.empty()) return 0.0;
  FAIRKM_DCHECK(sensitive.num_rows() == n);

  std::vector<size_t> sizes = cluster::ClusterSizes(assignment, k);
  double total = 0.0;

  for (const auto& attr : sensitive.categorical) {
    const int m = attr.cardinality;
    // counts[c * m + s] = |C_s|.
    std::vector<double> counts(static_cast<size_t>(k) * m, 0.0);
    for (size_t i = 0; i < n; ++i) {
      counts[static_cast<size_t>(assignment[i]) * m + attr.codes[i]] += 1.0;
    }
    const double norm = config.normalize_domain ? 1.0 / static_cast<double>(m) : 1.0;
    for (int c = 0; c < k; ++c) {
      const size_t size = sizes[static_cast<size_t>(c)];
      const double scale = ClusterScale(config.weighting, size, n);
      if (scale == 0.0) continue;
      double sum_u2 = 0.0;
      for (int s = 0; s < m; ++s) {
        const double u = counts[static_cast<size_t>(c) * m + s] -
                         static_cast<double>(size) * attr.dataset_fractions[s];
        sum_u2 += u * u;
      }
      total += attr.weight * norm * scale * sum_u2;
    }
  }

  for (const auto& attr : sensitive.numeric) {
    std::vector<double> sums(static_cast<size_t>(k), 0.0);
    for (size_t i = 0; i < n; ++i) {
      sums[static_cast<size_t>(assignment[i])] += attr.values[i];
    }
    for (int c = 0; c < k; ++c) {
      const size_t size = sizes[static_cast<size_t>(c)];
      const double scale = ClusterScale(config.weighting, size, n);
      if (scale == 0.0) continue;
      const double u = sums[static_cast<size_t>(c)] -
                       static_cast<double>(size) * attr.dataset_mean;
      total += attr.weight * scale * u * u;
    }
  }
  return total;
}

ObjectiveValue ComputeObjective(const data::Matrix& points,
                                const data::SensitiveView& sensitive,
                                const cluster::Assignment& assignment, int k,
                                const FairnessTermConfig& config) {
  ObjectiveValue value;
  data::Matrix centroids = cluster::ComputeCentroids(points, assignment, k);
  value.kmeans_term = cluster::SumOfSquaredErrors(points, assignment, centroids);
  value.fairness_term = ComputeFairnessTerm(sensitive, assignment, k, config);
  return value;
}

}  // namespace core
}  // namespace fairkm
