#include "testlib/brute_force.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/rng.h"
#include "core/kernels/kernels.h"

namespace fairkm {
namespace testutil {

BruteForceAggregates RecomputeAggregates(const data::Matrix& points,
                                         const data::SensitiveView& sensitive,
                                         const cluster::Assignment& assignment,
                                         int k,
                                         const core::FairnessTermConfig& config) {
  BruteForceAggregates out;
  out.counts = cluster::ClusterSizes(assignment, k);
  out.centroids = cluster::ComputeCentroids(points, assignment, k);
  out.kmeans_term = cluster::SumOfSquaredErrors(points, assignment, out.centroids);
  out.fairness_term = core::ComputeFairnessTerm(sensitive, assignment, k, config);

  const size_t uk = static_cast<size_t>(k);
  for (const auto& attr : sensitive.categorical) {
    std::vector<int64_t> counts(uk * static_cast<size_t>(attr.cardinality), 0);
    for (size_t i = 0; i < attr.codes.size(); ++i) {
      const size_t c = static_cast<size_t>(assignment[i]);
      counts[c * static_cast<size_t>(attr.cardinality) +
             static_cast<size_t>(attr.codes[i])]++;
    }
    out.cat_counts.push_back(std::move(counts));
  }
  for (const auto& attr : sensitive.numeric) {
    std::vector<double> sums(uk, 0.0);
    for (size_t i = 0; i < attr.values.size(); ++i) {
      sums[static_cast<size_t>(assignment[i])] += attr.values[i];
    }
    out.num_sums.push_back(std::move(sums));
  }
  return out;
}

cluster::Assignment BruteForceAssign(const data::Matrix& points,
                                     const data::SensitiveView& sensitive,
                                     const cluster::Assignment& trained, int k,
                                     double lambda,
                                     const data::Matrix& new_points,
                                     const data::SensitiveView* new_sensitive,
                                     const core::FairnessTermConfig& config) {
  const BruteForceAggregates agg =
      RecomputeAggregates(points, sensitive, trained, k, config);
  const size_t n = points.rows();  // Serving holds the training n fixed.
  const size_t d = points.cols();

  // Scratch-recomputed deviation term of ONE cluster given its value counts
  // / numeric sums and size (only the candidate cluster's term changes on a
  // virtual insertion; every other cluster cancels in the delta).
  auto cluster_term = [&](int c, size_t size,
                          const std::vector<std::vector<int64_t>>& cat_counts,
                          const std::vector<std::vector<double>>& num_sums) {
    const double scale = core::ClusterScale(config.weighting, size, n);
    double total = 0.0;
    for (size_t a = 0; a < sensitive.categorical.size(); ++a) {
      const auto& attr = sensitive.categorical[a];
      const double norm =
          config.normalize_domain ? 1.0 / attr.cardinality : 1.0;
      double dev = 0.0;
      for (int s = 0; s < attr.cardinality; ++s) {
        const double u =
            static_cast<double>(
                cat_counts[a][static_cast<size_t>(c) * attr.cardinality +
                              static_cast<size_t>(s)]) -
            static_cast<double>(size) * attr.dataset_fractions[s];
        dev += u * u;
      }
      total += attr.weight * norm * scale * dev;
    }
    for (size_t a = 0; a < sensitive.numeric.size(); ++a) {
      const auto& attr = sensitive.numeric[a];
      const double u = num_sums[a][static_cast<size_t>(c)] -
                       static_cast<double>(size) * attr.dataset_mean;
      total += attr.weight * scale * u * u;
    }
    return total;
  };

  cluster::Assignment out(new_points.rows(), 0);
  for (size_t i = 0; i < new_points.rows(); ++i) {
    const double* x = new_points.Row(i);
    double best = 0.0;
    int best_cluster = -1;
    for (int c = 0; c < k; ++c) {
      const size_t cnt = agg.counts[static_cast<size_t>(c)];
      if (cnt == 0) continue;  // No prototype to serve.
      const double* mu = agg.centroids.Row(static_cast<size_t>(c));
      double dist = 0.0;
      for (size_t j = 0; j < d; ++j) {
        const double diff = x[j] - mu[j];
        dist += diff * diff;
      }
      double cost =
          static_cast<double>(cnt) / static_cast<double>(cnt + 1) * dist;
      if (new_sensitive != nullptr) {
        // Virtually insert the point's sensitive values into cluster c.
        auto cat_counts = agg.cat_counts;
        auto num_sums = agg.num_sums;
        for (size_t a = 0; a < sensitive.categorical.size(); ++a) {
          const int m = sensitive.categorical[a].cardinality;
          ++cat_counts[a][static_cast<size_t>(c) * m +
                          static_cast<size_t>(
                              new_sensitive->categorical[a].codes[i])];
        }
        for (size_t a = 0; a < sensitive.numeric.size(); ++a) {
          num_sums[a][static_cast<size_t>(c)] +=
              new_sensitive->numeric[a].values[i];
        }
        const double before = cluster_term(c, cnt, agg.cat_counts, agg.num_sums);
        const double after = cluster_term(c, cnt + 1, cat_counts, num_sums);
        cost += lambda * (after - before);
      }
      if (best_cluster < 0 || cost < best) {
        best = cost;
        best_cluster = c;
      }
    }
    out[i] = best_cluster < 0 ? 0 : best_cluster;
  }
  return out;
}

double BruteForceDeltaKMeans(const data::Matrix& points,
                             const cluster::Assignment& assignment, int k,
                             size_t i, int to) {
  const double before = cluster::SumOfSquaredErrors(
      points, assignment, cluster::ComputeCentroids(points, assignment, k));
  cluster::Assignment moved = assignment;
  moved[i] = static_cast<int32_t>(to);
  const double after = cluster::SumOfSquaredErrors(
      points, moved, cluster::ComputeCentroids(points, moved, k));
  return after - before;
}

double BruteForceDeltaFairness(const data::SensitiveView& sensitive,
                               const cluster::Assignment& assignment, int k,
                               size_t i, int to,
                               const core::FairnessTermConfig& config) {
  const double before = core::ComputeFairnessTerm(sensitive, assignment, k, config);
  cluster::Assignment moved = assignment;
  moved[i] = static_cast<int32_t>(to);
  const double after = core::ComputeFairnessTerm(sensitive, moved, k, config);
  return after - before;
}

double OracleDeltaFairness(const core::FairKMState& state, size_t i, int to) {
  const data::SensitiveView& sensitive = state.sensitive();
  const int from = state.cluster_of(i);
  if (to == from || sensitive.empty()) return 0.0;
  const core::FairnessMomentTables& moments = state.fairness_moments();
  const core::ClusterWeighting weighting = state.config().weighting;
  const size_t n = state.num_rows();
  const size_t c_from = state.cluster_size(from);
  const size_t c_to = state.cluster_size(to);

  const double scale_from_before = core::ClusterScale(weighting, c_from, n);
  const double scale_from_after = core::ClusterScale(weighting, c_from - 1, n);
  const double scale_to_before = core::ClusterScale(weighting, c_to, n);
  const double scale_to_after = core::ClusterScale(weighting, c_to + 1, n);

  double delta = 0.0;
  for (size_t a = 0; a < sensitive.categorical.size(); ++a) {
    const auto& attr = sensitive.categorical[a];
    const int m = attr.cardinality;
    const int32_t v = attr.codes[i];
    const double q_v = attr.dataset_fractions[v];
    const double q2 = moments.cat_q2[a];
    const double norm =
        state.config().normalize_domain ? 1.0 / static_cast<double>(m) : 1.0;

    // Origin cluster: removal sends u_s -> u_s + q_s - [s=v], so the new
    // moment is U2 + Q2 + 1 + 2 (UQ - u_v - q_v); u_v touches one count.
    const double u2_from = moments.cat_u2[a][static_cast<size_t>(from)];
    const double uq_from = moments.cat_uq[a][static_cast<size_t>(from)];
    const double u_v_from =
        static_cast<double>(
            moments.cat_counts[a][static_cast<size_t>(from) * m + v]) -
        static_cast<double>(c_from) * q_v;
    const double after_from =
        u2_from + q2 + 1.0 + 2.0 * (uq_from - u_v_from - q_v);

    // Target cluster: insertion sends u_s -> u_s - q_s + [s=v].
    const double u2_to = moments.cat_u2[a][static_cast<size_t>(to)];
    const double uq_to = moments.cat_uq[a][static_cast<size_t>(to)];
    const double u_v_to =
        static_cast<double>(
            moments.cat_counts[a][static_cast<size_t>(to) * m + v]) -
        static_cast<double>(c_to) * q_v;
    const double after_to = u2_to + q2 + 1.0 - 2.0 * (uq_to - u_v_to + q_v);

    delta += attr.weight * norm *
             ((scale_from_after * after_from - scale_from_before * u2_from) +
              (scale_to_after * after_to - scale_to_before * u2_to));
  }
  for (size_t a = 0; a < sensitive.numeric.size(); ++a) {
    const auto& attr = sensitive.numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double t_from = moments.num_sums[a][static_cast<size_t>(from)];
    const double t_to = moments.num_sums[a][static_cast<size_t>(to)];
    // u = T_C - c * mean; removal: u' = u - x + mean; insertion: u' = u + x - mean.
    const double u_from = t_from - static_cast<double>(c_from) * mean;
    const double u_from_after = u_from - x + mean;
    const double u_to = t_to - static_cast<double>(c_to) * mean;
    const double u_to_after = u_to + x - mean;
    delta += attr.weight *
             ((scale_from_after * u_from_after * u_from_after -
               scale_from_before * u_from * u_from) +
              (scale_to_after * u_to_after * u_to_after -
               scale_to_before * u_to * u_to));
  }
  return delta;
}

double OracleFairInsertionDelta(const core::FairKMState& state, size_t i,
                                int c) {
  const data::SensitiveView& sensitive = state.sensitive();
  const core::FairnessMomentTables& moments = state.fairness_moments();
  const core::ClusterWeighting weighting = state.config().weighting;
  const size_t n = state.num_rows();
  const size_t ci = static_cast<size_t>(c);
  const size_t cnt = state.cluster_size(c);
  const double scale_before = core::ClusterScale(weighting, cnt, n);
  const double scale_ins_after = core::ClusterScale(weighting, cnt + 1, n);
  const double scale_rem_after =
      cnt >= 1 ? core::ClusterScale(weighting, cnt - 1, n) : 0.0;
  double total = 0.0;
  for (size_t a = 0; a < sensitive.categorical.size(); ++a) {
    const auto& attr = sensitive.categorical[a];
    const size_t m = static_cast<size_t>(attr.cardinality);
    std::vector<double> rem(m), ins(m);
    double rem_min = 0.0, ins_min = 0.0;
    core::kernels::CatDeltaBounds(
        moments.cat_counts[a].data() + ci * m, attr.dataset_fractions.data(),
        m, static_cast<double>(cnt), moments.cat_u2[a][ci],
        moments.cat_uq[a][ci], moments.cat_q2[a], scale_before,
        scale_rem_after, scale_ins_after, rem.data(), ins.data(), &rem_min,
        &ins_min);
    const double wn =
        attr.weight * (state.config().normalize_domain
                           ? 1.0 / static_cast<double>(attr.cardinality)
                           : 1.0);
    total += wn * ins[static_cast<size_t>(attr.codes[i])];
  }
  const size_t c_to = state.cluster_size(c);
  for (size_t a = 0; a < sensitive.numeric.size(); ++a) {
    const auto& attr = sensitive.numeric[a];
    const double x = attr.values[i];
    const double mean = attr.dataset_mean;
    const double u = state.fairness_moments().num_sums[a][ci] -
                     static_cast<double>(c_to) * mean;
    const double u_after = u + x - mean;
    total += attr.weight *
             (core::ClusterScale(weighting, c_to + 1, n) * u_after * u_after -
              core::ClusterScale(weighting, c_to, n) * u * u);
  }
  return total;
}

double BatchedDeltaFairness(const core::FairKMState& state, size_t i, int to) {
  std::vector<double> lanes(static_cast<size_t>(state.k()));
  state.DeltaFairnessAllClusters(i, lanes.data());
  return lanes[static_cast<size_t>(to)];
}

::testing::AssertionResult StateMatchesBruteForce(
    const core::FairKMState& state, const data::Matrix& points,
    const data::SensitiveView& sensitive, const core::FairnessTermConfig& config,
    double tolerance) {
  const cluster::Assignment& assignment = state.assignment();
  if (assignment.size() != points.rows()) {
    return ::testing::AssertionFailure()
           << "assignment has " << assignment.size() << " entries for "
           << points.rows() << " points";
  }
  const int k = state.k();
  const BruteForceAggregates expected =
      RecomputeAggregates(points, sensitive, assignment, k, config);

  for (int c = 0; c < k; ++c) {
    if (state.cluster_size(c) != expected.counts[static_cast<size_t>(c)]) {
      return ::testing::AssertionFailure()
             << "cluster " << c << " size: state says " << state.cluster_size(c)
             << ", brute force says " << expected.counts[static_cast<size_t>(c)];
    }
  }

  const data::Matrix centroids = state.Centroids();
  if (centroids.rows() != expected.centroids.rows() ||
      centroids.cols() != expected.centroids.cols()) {
    return ::testing::AssertionFailure()
           << "centroid shape (" << centroids.rows() << " x " << centroids.cols()
           << ") != (" << expected.centroids.rows() << " x "
           << expected.centroids.cols() << ")";
  }
  for (size_t r = 0; r < centroids.rows(); ++r) {
    for (size_t c = 0; c < centroids.cols(); ++c) {
      const double got = centroids.At(r, c);
      const double want = expected.centroids.At(r, c);
      if (std::fabs(got - want) > tolerance) {
        return ::testing::AssertionFailure()
               << "centroid[" << r << "][" << c << "] = " << got
               << ", brute force " << want << " (|diff| "
               << std::fabs(got - want) << " > " << tolerance << ")";
      }
    }
  }

  if (std::fabs(state.KMeansTerm() - expected.kmeans_term) >
      tolerance * std::max(1.0, std::fabs(expected.kmeans_term))) {
    return ::testing::AssertionFailure()
           << "KMeansTerm " << state.KMeansTerm() << " != brute force "
           << expected.kmeans_term;
  }
  if (std::fabs(state.FairnessTerm() - expected.fairness_term) >
      tolerance * std::max(1.0, std::fabs(expected.fairness_term))) {
    return ::testing::AssertionFailure()
           << "FairnessTerm " << state.FairnessTerm() << " != brute force "
           << expected.fairness_term;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult PrunerBoundsHold(const core::FairKMState& state,
                                            const core::SweepPruner& pruner,
                                            double lambda,
                                            double min_improvement,
                                            double tolerance) {
  if (!state.bound_tracking()) {
    return ::testing::AssertionFailure() << "bound tracking is not enabled";
  }
  const size_t n = state.num_rows();
  const int k = state.k();
  std::vector<double> km(static_cast<size_t>(k));
  std::vector<double> dists(static_cast<size_t>(k));
  std::vector<double> fair(static_cast<size_t>(k));
  std::vector<double> ins(static_cast<size_t>(k));
  for (size_t i = 0; i < n; ++i) {
    // Both batched entries must reproduce their per-candidate oracles bit
    // for bit, and the table split the exact closed form, for every point,
    // fresh or not.
    state.DeltaFairnessAllClusters(i, fair.data());
    state.FairInsertionDeltaAllClusters(i, ins.data());
    for (int c = 0; c < k; ++c) {
      const size_t ci = static_cast<size_t>(c);
      const double exact = OracleDeltaFairness(state, i, c);
      if (fair[ci] != exact) {
        return ::testing::AssertionFailure()
               << "fairness lane " << fair[ci] << " != oracle " << exact
               << " for point " << i << " -> " << c;
      }
      const double lookup = OracleFairInsertionDelta(state, i, c);
      if (ins[ci] != lookup) {
        return ::testing::AssertionFailure()
               << "insertion lane " << ins[ci] << " != table lookup "
               << lookup << " for point " << i << " -> " << c;
      }
      if (c == state.cluster_of(i)) continue;
      const double split = state.FairRemovalDelta(i) + ins[ci];
      if (std::fabs(split - exact) > tolerance * std::max(1.0, std::fabs(exact))) {
        return ::testing::AssertionFailure()
               << "fairness table split " << split << " != fairness lane "
               << exact << " for point " << i << " -> " << c;
      }
    }
    if (!pruner.IsFresh(i)) continue;
    const int from = state.cluster_of(i);
    // Exact (clamped, expanded-form) distances as the sweep computes them.
    state.DeltaKMeansAllClusters(i, km.data(), dists.data());
    const double self_dist = std::sqrt(dists[static_cast<size_t>(from)]);
    if (self_dist > pruner.UpperBound(i) + tolerance) {
      return ::testing::AssertionFailure()
             << "point " << i << ": own-centroid distance " << self_dist
             << " exceeds upper bound " << pruner.UpperBound(i);
    }
    for (int c = 0; c < k; ++c) {
      if (c == from || state.effective_count(c) == 0) continue;
      const double dist = std::sqrt(dists[static_cast<size_t>(c)]);
      if (dist < pruner.CandidateLowerBound(i, c) - tolerance) {
        return ::testing::AssertionFailure()
               << "point " << i << " cluster " << c << ": distance " << dist
               << " below candidate lower bound "
               << pruner.CandidateLowerBound(i, c);
      }
      if (dist < pruner.LowerBound(i) - tolerance) {
        return ::testing::AssertionFailure()
               << "point " << i << " cluster " << c << ": distance " << dist
               << " below global lower bound " << pruner.LowerBound(i);
      }
    }
    // Per-cluster fairness bounds against this point's exact deltas.
    if (state.FairRemovalDelta(i) <
        state.fair_removal_bound(from) - tolerance) {
      return ::testing::AssertionFailure()
             << "point " << i << ": removal delta " << state.FairRemovalDelta(i)
             << " below cluster bound " << state.fair_removal_bound(from);
    }
    for (int c = 0; c < k; ++c) {
      if (c == from) continue;
      if (ins[static_cast<size_t>(c)] <
          state.fair_insertion_bound(c) - tolerance) {
        return ::testing::AssertionFailure()
               << "point " << i << " cluster " << c << ": insertion delta "
               << ins[static_cast<size_t>(c)] << " below cluster bound "
               << state.fair_insertion_bound(c);
      }
    }
    // End-to-end soundness: a pruned point must have no improving move under
    // the exact kernels.
    if (pruner.ShouldPrune(i)) {
      for (int c = 0; c < k; ++c) {
        if (c == from) continue;
        const double delta =
            km[static_cast<size_t>(c)] + lambda * fair[static_cast<size_t>(c)];
        if (delta < -min_improvement) {
          return ::testing::AssertionFailure()
                 << "point " << i << " was pruned but moving to " << c
                 << " improves the objective by " << -delta
                 << " (> min_improvement " << min_improvement << ")";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

double BruteForceSilhouette(const data::Matrix& points,
                            const cluster::Assignment& assignment, int k,
                            const metrics::SilhouetteOptions& options) {
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
  const std::vector<size_t> sizes = cluster::ClusterSizes(assignment, k);
  double total = 0.0;
  size_t counted = 0;
  std::vector<double> dist_sum(static_cast<size_t>(k));
  for (size_t p : probes) {
    const size_t own = static_cast<size_t>(assignment[p]);
    if (sizes[own] <= 1) {
      // Singleton: silhouette defined as 0.
      ++counted;
      continue;
    }
    std::fill(dist_sum.begin(), dist_sum.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i == p) continue;
      const double d = std::sqrt(
          data::SquaredDistance(points.Row(p), points.Row(i), points.cols()));
      dist_sum[static_cast<size_t>(assignment[i])] += d;
    }
    const double a = dist_sum[own] / static_cast<double>(sizes[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (int c = 0; c < k; ++c) {
      const size_t cc = static_cast<size_t>(c);
      if (cc == own || sizes[cc] == 0) continue;
      b = std::min(b, dist_sum[cc] / static_cast<double>(sizes[cc]));
    }
    if (!std::isfinite(b)) {
      // Single non-empty cluster: silhouette undefined; count as 0.
      ++counted;
      continue;
    }
    const double denom = std::max(a, b);
    total += denom > 0.0 ? (b - a) / denom : 0.0;
    ++counted;
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

namespace {

// Little-endian binary digits of a non-negative integer.
using BigBits = std::vector<uint8_t>;

void AddBitAt(BigBits* bits, size_t pos) {
  for (; pos < bits->size() && (*bits)[pos] == 1; ++pos) (*bits)[pos] = 0;
  if (pos >= bits->size()) bits->resize(pos + 1, 0);
  (*bits)[pos] = 1;
}

bool BigLess(const BigBits& a, const BigBits& b) {
  for (size_t i = std::max(a.size(), b.size()); i-- > 0;) {
    const uint8_t x = i < a.size() ? a[i] : 0;
    const uint8_t y = i < b.size() ? b[i] : 0;
    if (x != y) return x < y;
  }
  return false;
}

// a - b for a >= b.
BigBits BigSubtract(const BigBits& a, const BigBits& b) {
  BigBits out(a.size(), 0);
  int borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int d = a[i] - (i < b.size() ? b[i] : 0) - borrow;
    borrow = d < 0 ? 1 : 0;
    out[i] = static_cast<uint8_t>(d + 2 * borrow);
  }
  return out;
}

}  // namespace

double BruteForceExactSum(const std::vector<double>& values) {
  BigBits positive, negative;
  for (const double v : values) {
    int exponent = 0;
    const double fraction = std::frexp(std::fabs(v), &exponent);
    if (fraction == 0.0) continue;
    // |v| = fraction * 2^exponent with fraction in [0.5, 1): read its 53
    // significand bits and place each at its power of two, counted from
    // 2^-1074.
    const uint64_t significand =
        static_cast<uint64_t>(std::ldexp(fraction, 53));
    const int lowest = exponent - 53 + 1074;
    for (int b = 0; b < 53; ++b) {
      if (((significand >> b) & 1) == 0) continue;
      if (lowest + b < 0) continue;  // Cannot happen for a finite double.
      AddBitAt(v < 0 ? &negative : &positive, static_cast<size_t>(lowest + b));
    }
  }
  const bool is_negative = BigLess(positive, negative);
  BigBits magnitude = is_negative ? BigSubtract(negative, positive)
                                  : BigSubtract(positive, negative);
  while (!magnitude.empty() && magnitude.back() == 0) magnitude.pop_back();
  if (magnitude.empty()) return 0.0;
  const size_t width = magnitude.size();
  const size_t drop = width > 64 ? width - 64 : 0;
  uint64_t window = 0;
  for (size_t i = width; i-- > drop;) window = window << 1 | magnitude[i];
  for (size_t i = 0; i < drop; ++i) window |= magnitude[i];  // Sticky.
  const double result = std::ldexp(static_cast<double>(window),
                                   static_cast<int>(drop) - 1074);
  return is_negative ? -result : result;
}

}  // namespace testutil
}  // namespace fairkm
