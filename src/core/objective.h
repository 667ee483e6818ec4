// Standalone evaluation of the FairKM objective (paper Eq. 1).
//
//   O = sum_C sum_{X in C} dist_N(X, C)  +  lambda * deviation_S(C, X)
//
// The K-Means term is cluster::SumOfSquaredErrors. The fairness deviation
// term (Eq. 7 for categorical, Eq. 22 for numeric sensitive attributes, with
// the Eq. 23 per-attribute weights) is computed here, including the two
// design knobs the paper motivates in §4.1 and which our ablation benches
// toggle: domain-cardinality normalization (Eq. 4) and cluster weighting by
// squared fractional cardinality (Eq. 6).

#ifndef FAIRKM_CORE_OBJECTIVE_H_
#define FAIRKM_CORE_OBJECTIVE_H_

#include <cstdint>
#include <vector>

#include "cluster/types.h"
#include "common/status.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief How each cluster's deviation is weighted in the sum over clusters.
enum class ClusterWeighting {
  /// (|C|/|X|)^2 — the paper's choice (Eq. 6).
  kSquaredFraction,
  /// |C|/|X| — cardinality-weighted sum (a boundary-case-prone alternative
  /// the paper argues against in §4.1).
  kFractional,
  /// 1 — unweighted sum (the other alternative argued against).
  kUnweighted,
};

/// \brief Knobs of the fairness deviation term.
struct FairnessTermConfig {
  /// Divide each categorical attribute's deviation by |Values(S)| (Eq. 4).
  bool normalize_domain = true;
  ClusterWeighting weighting = ClusterWeighting::kSquaredFraction;
};

/// \brief Evaluates deviation_S(C, X) (Eq. 7 / 22 / 23) from scratch.
///
/// Attribute weights are taken from the SensitiveView (w_S of Eq. 23).
double ComputeFairnessTerm(const data::SensitiveView& sensitive,
                           const cluster::Assignment& assignment, int k,
                           const FairnessTermConfig& config = {});

/// \brief Both terms of Eq. 1, evaluated from scratch.
struct ObjectiveValue {
  double kmeans_term = 0.0;
  double fairness_term = 0.0;

  double Total(double lambda) const { return kmeans_term + lambda * fairness_term; }
};

/// \brief Evaluates the full FairKM objective from scratch (reference path;
/// the optimizer uses incremental deltas — see core/fairkm_state.h).
ObjectiveValue ComputeObjective(const data::Matrix& points,
                                const data::SensitiveView& sensitive,
                                const cluster::Assignment& assignment, int k,
                                const FairnessTermConfig& config = {});

/// \brief Per-cluster scale factor applied to sum_s u_s^2 where
/// u_s = |C_s| - |C| * Fr_X(s): 1/n^2 for W(c) = (c/n)^2, 1/(n c) for
/// W(c) = c/n and 1/c^2 for W(c) = 1 (derivation in objective.cc).
/// Returns 0 for empty clusters. Inline: the sweep prices it per cluster.
inline double ClusterScale(ClusterWeighting weighting, size_t cluster_size,
                           size_t num_rows) {
  if (cluster_size == 0) return 0.0;
  const double n = static_cast<double>(num_rows);
  const double c = static_cast<double>(cluster_size);
  switch (weighting) {
    case ClusterWeighting::kSquaredFraction:
      return 1.0 / (n * n);
    case ClusterWeighting::kFractional:
      return 1.0 / (n * c);
    case ClusterWeighting::kUnweighted:
      return 1.0 / (c * c);
  }
  return 0.0;
}

/// \brief The one fairness-insertion formula: the change of one categorical
/// attribute's scaled moment, scale * sum_s u_s^2, when a point with value v
/// joins a cluster of `size` points (un-weighted, un-normalized). Insertion
/// sends u_s -> u_s - q_s + [s=v], so the new moment is
///   U2 + Q2 + 1 - 2 (UQ - u_v + q_v),  u_v = count_v - size q_v
/// (derivation in core/fairkm_state.h). `count_v` is the cluster's count of
/// value v, `q_v` its dataset fraction; `scale_before`/`scale_after` are the
/// ClusterScale of `size` and `size + 1`. Every insertion pricer — the
/// out-of-sample FairnessInsertionDelta, the sweep's batched delta lanes
/// (core/kernels) — evaluates this exact operation sequence, so equal
/// inputs give bit-identical terms.
inline double CatInsertionTerm(double u2, double uq, double q2, double count_v,
                               double size, double q_v, double scale_before,
                               double scale_after) {
  const double u_v = count_v - size * q_v;
  const double after = u2 + q2 + 1.0 - 2.0 * (uq - u_v + q_v);
  return scale_after * after - scale_before * u2;
}

/// \brief The numeric-attribute counterpart of CatInsertionTerm: with
/// u = sum - size * mean, inserting value x sends u -> u + x - mean.
inline double NumInsertionTerm(double sum, double size, double mean, double x,
                               double scale_before, double scale_after) {
  const double u = sum - size * mean;
  const double u_after = u + x - mean;
  return scale_after * u_after * u_after - scale_before * u * u;
}

/// \brief The fairness aggregates the incremental deltas read: exact integer
/// value counts, the U2 = sum_s u_s^2 and UQ = sum_s u_s q_s moments
/// (u_s = |C_s| - |C| Fr_X(s), q_s = Fr_X(s)), the assignment-independent
/// Q2 = sum_s q_s^2 constants, and the numeric value sums. FairKMState
/// maintains one live copy; core::ModelExport freezes one for serving.
struct FairnessMomentTables {
  std::vector<std::vector<int64_t>> cat_counts;  ///< [a][c * m_a + s]
  std::vector<std::vector<double>> cat_u2;       ///< [a][c]
  std::vector<std::vector<double>> cat_uq;       ///< [a][c]
  std::vector<double> cat_q2;                    ///< [a]
  std::vector<std::vector<double>> num_sums;     ///< [a][c]
};

/// \brief Fairness-term change of inserting one out-of-sample point into
/// cluster `to` (of size `cluster_size`, training-set size `n`): the
/// target-cluster half of the Eq. 16-19 move delta, in O(1) per attribute
/// (CatInsertionTerm / NumInsertionTerm). The attribute structure supplies
/// cardinalities, weights and the dataset-level fractions/means that price
/// the delta; their per-row vectors are not read. `codes` holds one code per
/// categorical attribute, `values` one value per numeric attribute; either
/// may be null when there are none. Nothing is mutated: the model stays the
/// distribution reference. Every insertion scorer (FairKMState::
/// BestInsertion, serve::AssignRows) prices through this one function, so
/// equal tables give bit-identical costs.
inline double FairnessInsertionDelta(
    const std::vector<data::CategoricalSensitive>& categorical,
    const std::vector<data::NumericSensitive>& numeric,
    const FairnessMomentTables& tables, size_t cluster_size, size_t n,
    const FairnessTermConfig& config, const int32_t* codes,
    const double* values, int to) {
  if (categorical.empty() && numeric.empty()) return 0.0;
  const size_t ti = static_cast<size_t>(to);
  const double size = static_cast<double>(cluster_size);
  const double scale_before = ClusterScale(config.weighting, cluster_size, n);
  const double scale_after =
      ClusterScale(config.weighting, cluster_size + 1, n);
  double delta = 0.0;
  for (size_t a = 0; a < categorical.size(); ++a) {
    const data::CategoricalSensitive& attr = categorical[a];
    const int m = attr.cardinality;
    const int32_t v = codes[a];
    const double norm =
        config.normalize_domain ? 1.0 / static_cast<double>(m) : 1.0;
    delta += attr.weight * norm *
             CatInsertionTerm(
                 tables.cat_u2[a][ti], tables.cat_uq[a][ti], tables.cat_q2[a],
                 static_cast<double>(tables.cat_counts[a][ti * m + v]), size,
                 attr.dataset_fractions[static_cast<size_t>(v)], scale_before,
                 scale_after);
  }
  for (size_t a = 0; a < numeric.size(); ++a) {
    const data::NumericSensitive& attr = numeric[a];
    delta += attr.weight * NumInsertionTerm(tables.num_sums[a][ti], size,
                                            attr.dataset_mean, values[a],
                                            scale_before, scale_after);
  }
  return delta;
}

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_OBJECTIVE_H_
