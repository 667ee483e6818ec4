// Incremental FairKM optimizer state.
//
// Maintains, for a live clustering assignment:
//   * per-cluster sizes and feature sums (exact centroids at all times),
//   * per-cluster value counts for every categorical sensitive attribute,
//   * per-cluster value sums for every numeric sensitive attribute,
//   * per-point squared norms and per-cluster squared sum-norms (the
//     expanded-form K-Means delta caches),
//   * per (attribute, cluster) fairness moments sum_s u_s^2 and
//     sum_s u_s q_s, where u_s = |C_s| - |C| Fr_X(s) and q_s = Fr_X(s),
// and computes the exact change of both objective terms for every candidate
// move of one point in two batched passes, which is what the optimizer
// sweep runs:
//   * DeltaKMeansAllClusters: one contiguous GEMV over the k x stride sums
//     matrix (O(k d));
//   * DeltaFairnessAllClusters: the origin-cluster (removal) half of the
//     fairness delta priced once per point, then the insertion half of all k
//     candidates as contiguous lanes of the kernels::FairDeltaLanes kernel
//     (O(k |S|), one closed-form expression per attribute and cluster),
//     reading value-major mirrors of the count table ([a][v * k + c], as
//     doubles) and per-cluster size / ClusterScale rows that Move and every
//     rebuild keep in sync. Each lane is bit-identical to the per-candidate
//     formula (tests/testlib's OracleDeltaFairness).
// The original O(d) + O(sum_S m_S) two-loop evaluation stays as the
// ReferenceDelta* oracles.
//
// Hot-path storage is the aligned, lane-padded layout of
// data/point_store.h: every state reads its rows from a PointStore
// (32-byte-aligned rows, stride a multiple of 4 doubles, zero padding) and
// the k x stride sums / prototype buffers use the same stride, so the dense
// primitives run the backends' aligned no-tail fast path (GemvAligned).
// Padded entries are exact zeros and never change any accumulated value.
//
// The dense primitives and the per-(attribute, cluster) moment recomputation
// route through core/kernels/kernels.h, which dispatches at runtime between
// a scalar reference backend and an AVX2/FMA backend (FAIRKM_FORCE_SCALAR
// pins the scalar one). CatMoments / CatMomentsBounds are bit-for-bit
// identical across backends, so the fairness aggregates never depend on the
// host CPU.
//
// Derivation of the O(1) fairness delta (expanding Eqs. 16-19): removing a
// point with value v from a cluster sends u_s -> u_s + q_s - [s=v], so
//   sum_s u'_s^2 = U2 + Q2 + 1 + 2 (UQ - u_v - q_v)
// with U2 = sum_s u_s^2, UQ = sum_s u_s q_s and the per-attribute constant
// Q2 = sum_s q_s^2; insertion sends u_s -> u_s - q_s + [s=v], so
//   sum_s u'_s^2 = U2 + Q2 + 1 - 2 (UQ - u_v + q_v).
// u_v needs only the single touched count |C_v|, making the delta O(1) per
// attribute. U2/UQ are recomputed from the exact integer counts in O(m_S)
// for the two touched clusters on Move (which is already O(m_S) there), so
// they never accumulate floating-point drift.
//
// Bound tracking (EnableBoundTracking) adds the cluster-level side of the
// sweep pruning engine (core/pruning.h):
//   * a monotone per-cluster centroid-drift accumulator (how far each
//     effective centroid — live, or the prototype snapshot in mini-batch
//     mode — has moved since the start), fed by exact per-move displacement
//     ||x - mu|| / (|C| -+ 1) in live mode and by a full old-vs-new centroid
//     comparison at every RefreshPrototypes in snapshot mode (the refill of
//     an empty cluster, which no finite drift covers, advances bound_epoch()
//     instead);
//   * monotone count-based fairness move bounds: per (attribute, cluster,
//     value) removal/insertion delta tables (the CatDeltaBounds kernel,
//     recomputed only for clusters whose group counts moved, and only when
//     the tables are next read) whose row minima give, per cluster, a lower
//     bound on the fairness-term change of removing *any* point from it /
//     inserting *any* point into it — and whose entries give the *exact* per-candidate fairness delta by table
//     lookup (FairRemovalDelta; FairInsertionDeltaAllClusters reads the
//     insertion table value-major, [a][v * k + c], so one point's k
//     candidates are one contiguous row per attribute);
//   * the best/second-best insertion bound and smallest K-Means addition
//     factor |C|/(|C|+1) across clusters, so the pruning gate's first stage
//     is O(1) per point.
//
// The pre-expansion kernels are retained as ReferenceDeltaKMeans /
// ReferenceDeltaFairness: property tests cross-validate the optimized
// kernels against them and against scratch recomputation to 1e-9, and the
// scaling bench uses them as the "before" timing baseline.
//
// Lane mirrors and checkpoints: everything but the assignment, the feature
// and numeric-attribute sums, the prototype snapshot and the drift
// accumulators is derived state — the counts tables, the norm caches, the
// U2/UQ moments, the value-major lane mirrors, the K-Means factor rows and
// the bound tables. A Checkpoint carries only that primary state;
// RestoreCheckpoint re-derives the rest through DeriveAggregates, the same
// routine Reset, RebuildFromStore and RefreshDatasetStats run, so nothing
// derived is ever read from outside bytes.

#ifndef FAIRKM_CORE_FAIRKM_STATE_H_
#define FAIRKM_CORE_FAIRKM_STATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/types.h"
#include "common/status.h"
#include "core/kernels/kernels.h"
#include "core/objective.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"

namespace fairkm {
namespace core {

/// \brief Mutable aggregates backing the round-robin optimization (§4.2).
///
/// The state shares ownership of its PointStore; the referenced sensitive
/// view must outlive it.
class FairKMState {
 public:
  /// \brief Copies `points` into an in-memory PointStore and forwards to the
  /// store Create. The matrix may die right after this returns.
  static Result<FairKMState> Create(const data::Matrix* points,
                                    const data::SensitiveView* sensitive, int k,
                                    cluster::Assignment initial,
                                    FairnessTermConfig config = {});

  /// \brief Builds aggregates for an initial assignment, reading rows from
  /// `store` (any backend — this is how out-of-core mmap stores enter the
  /// optimizer). `sensitive` may be empty (state degenerates to incremental
  /// K-Means bookkeeping).
  static Result<FairKMState> Create(
      std::shared_ptr<const data::PointStore> store,
      const data::SensitiveView* sensitive, int k,
      cluster::Assignment initial, FairnessTermConfig config = {});

  /// \brief Rebuilds every per-assignment aggregate for a new initial
  /// assignment over the SAME points/sensitive view, reusing the aligned
  /// point store, the per-point norm cache and all buffer allocations (the
  /// multi-seed fast path of core::FairKMSolver — allocation-free after the
  /// first build). Snapshot/bound-tracking modes are preserved; bound state
  /// is recomputed from scratch (zero drift, fresh tables).
  Status Reset(cluster::Assignment initial);

  /// \brief The primary per-assignment state, the payload of
  /// core::FairKMSolver checkpoints: the assignment, the float sums (whose
  /// incremental summation order a recount would not reproduce), the
  /// prototype snapshot and the drift accumulators. Everything else is a
  /// deterministic function of these and is recomputed on restore, so a
  /// resumed trajectory is bit-identical on the same kernel backend.
  struct Checkpoint {
    cluster::Assignment assignment;
    data::AlignedVector sums;                   ///< k x stride.
    std::vector<std::vector<double>> num_sums;  ///< [a][c].
    bool use_snapshot = false;
    std::vector<size_t> proto_counts;           ///< k.
    data::AlignedVector proto_sums;             ///< k x stride.
    bool track_bounds = false;
    std::vector<double> drift;                  ///< k when track_bounds.
    double max_step_sum = 0.0;
  };
  void SaveCheckpoint(Checkpoint* out) const;
  /// \brief Restores a checkpoint taken from a state over the same
  /// points/sensitive/k and the same snapshot/bound-tracking modes, then
  /// re-derives every other aggregate (DeriveAggregates). kInvalidArgument
  /// when the shapes or modes differ, or when the sums disagree with this
  /// state's rows under the checkpoint's assignment.
  Status RestoreCheckpoint(const Checkpoint& cp);

  // --- Online growth hooks (src/online/). The caller mutates the backing
  // PointStore under its own serialization — never while a sweep, a
  // snapshot export, or any other reader is in flight. A store the state
  // owns privately (the matrix Create) cannot grow, so the row-count checks
  // below reject growth on it.

  /// \brief Folds one just-appended point into the aggregates: the backing
  /// store AND the sensitive view must already hold num_rows()+1 rows, and
  /// the new row is assigned to cluster `to`. Updates assignment, counts,
  /// feature sums, norm caches and per-attribute count/sum tables
  /// incrementally in O(d + |S|). Dataset-statistic-dependent values (the
  /// view's fractions/means, the Q2 constants, every U2/UQ moment, all
  /// bounds) go stale — the caller MUST call RefreshDatasetStats() after its
  /// admit batch, before any delta/objective query. A code outside its
  /// attribute's cardinality is rejected before any aggregate changes.
  Status AdmitAppended(int to);

  /// \brief Removes row r's contributions and mirrors the swap-with-last
  /// the caller is about to apply to the store and view: row r's aggregates
  /// are subtracted, then the LAST row's assignment/norm slide into slot r
  /// and the state shrinks by one row. Call BEFORE mutating the store (this
  /// reads row r). Same staleness contract as AdmitAppended.
  Status RetireSwapped(size_t r);

  /// \brief Recomputes everything that depends on the dataset-level
  /// statistics after the caller updated the sensitive view's
  /// dataset_fractions / dataset_mean for a changed membership: the Q2
  /// constants, every (attribute, cluster) U2/UQ moment, and — when bound
  /// tracking is on — every bound table (fresh, zero drift; the
  /// bound_epoch() bump voids every per-point pruner bound).
  /// O(k sum_S m_S).
  void RefreshDatasetStats();

  /// \brief Canonical full rebuild over the CURRENT store contents under
  /// `initial`: clears the per-point norm caches so every aggregate —
  /// including total ||x||^2 and the chunked summation order — is recomputed
  /// exactly as a fresh Create over the same rows would, which is the
  /// online engine's Flush() oracle contract (bit-identical moments, counts
  /// and objective versus a from-scratch state).
  Status RebuildFromStore(cluster::Assignment initial);

  /// \brief Exact change of the K-Means term if point `i` moved to `to`
  /// (0 when `to` is its current cluster).
  double DeltaKMeans(size_t i, int to) const;

  /// \brief Batched K-Means deltas: fills `out[c]` with DeltaKMeans(i, c) for
  /// every cluster in one contiguous pass over the k x stride sums matrix.
  /// `out` must have room for k() doubles. This is the optimizer's hot
  /// kernel; it is read-only. The state is driven from its session's thread
  /// (serve readers score exported ModelSnapshot copies, never the live
  /// state).
  void DeltaKMeansAllClusters(size_t i, double* out) const {
    DeltaKMeansAllClusters(i, out, nullptr);
  }

  /// \brief Tracked variant: when `dists` is non-null (room for k doubles),
  /// additionally exports the clamped squared distance of point i to every
  /// effective centroid (0 for empty clusters) — the k values the pruning
  /// engine's per-point bound refresh consumes. The delta math is identical
  /// either way.
  void DeltaKMeansAllClusters(size_t i, double* out, double* dists) const;

  /// \brief Batched fairness deltas: fills `out[c]` with the exact change
  /// of the fairness deviation term if point i moved to cluster c, for every
  /// cluster (`out` has room for k() doubles; out[cluster_of(i)] = 0). The
  /// removal half prices once per point; the insertion halves run as k
  /// contiguous lanes (kernels::FairDeltaLanes), each lane bit-identical to
  /// the per-candidate O(1)-per-attribute formula. Uses per-state scratch:
  /// drive it from the session's thread only.
  void DeltaFairnessAllClusters(size_t i, double* out) const;

  /// \brief The live out-of-sample scorer: the non-empty cluster minimizing
  /// the Eq. 1 insertion cost of point `x` (d() features),
  ///   |C|/(|C|+1) d(x, mu_C)^2 + lambda * FairnessInsertionDelta,
  /// with the distance taken as sum_j (x_j - S_C,j (1/|C|))^2 against the
  /// live sums, and the fairness half priced from the live moment tables
  /// (core/objective.h). `codes` (one per categorical attribute) and
  /// `values` (one per numeric attribute) are the point's sensitive values;
  /// both null means a K-Means-only cost. Strict < keeps ties on the smallest
  /// cluster id. Returns -1 when every cluster is empty. Read-only: solver
  /// Assign scores the trained state with it, online Admit the aggregates
  /// as each earlier admitted row left them.
  int BestInsertion(const double* x, const int32_t* codes,
                    const double* values, double lambda) const;

  /// \brief Pre-expansion O(d) two-distance K-Means delta (oracle/bench).
  double ReferenceDeltaKMeans(size_t i, int to) const;

  /// \brief Pre-expansion O(sum_S m_S) fairness delta (oracle/bench).
  double ReferenceDeltaFairness(size_t i, int to) const;

  /// \brief Applies the move, updating all aggregates in O(d + sum_S m_S).
  void Move(size_t i, int to);

  /// \brief K-Means term recomputed from scratch against exact centroids.
  double KMeansTerm() const;

  /// \brief K-Means term from the maintained norm caches in O(k):
  /// SSE = sum_i ||x_i||^2 - sum_c ||S_c||^2 / |C_c|, falling back to the
  /// scratch KMeansTerm() when the subtraction cancels too heavily
  /// (strongly off-center data). Agrees with KMeansTerm() to ~1e-10
  /// relative; the optimizer's per-sweep objective history uses this so
  /// recording the trajectory costs O(k), not O(n d), per sweep.
  double KMeansTermCached() const;

  /// \brief Fairness term recomputed from the count aggregates (O(k sum m)).
  double FairnessTerm() const;

  /// \brief Fairness term from the maintained U2 moments in O(k |S|)
  /// (FairnessTerm rebuilds the per-cluster counts from the assignment in
  /// O(n |S|)). Same value up to summation-order rounding.
  double FairnessTermCached() const;

  /// \brief Exact centroid matrix (k x d) of the current assignment.
  data::Matrix Centroids() const;

  const cluster::Assignment& assignment() const { return assignment_; }
  int cluster_of(size_t i) const { return assignment_[i]; }
  /// \brief Cached ||x_i||^2 — the pruning gate scales its rounding margin
  /// by this, since the expanded-form distances (and the drift steps built
  /// from them) carry absolute error proportional to the gross norms, not to
  /// the possibly tiny distances that survive the cancellation.
  double point_norm(size_t i) const { return point_norms_[i]; }
  size_t cluster_size(int c) const { return counts_[static_cast<size_t>(c)]; }
  int k() const { return k_; }
  size_t num_rows() const { return n_; }

  /// \brief Mini-batch support (paper §6.1): when enabled, DeltaKMeans reads
  /// a prototype snapshot instead of the live sums; RefreshPrototypes()
  /// re-synchronizes the snapshot. Fairness aggregates are always live (they
  /// are O(1) to maintain; the paper's bottleneck is the centroid update).
  void EnablePrototypeSnapshot(bool enable);
  void RefreshPrototypes();

  // --- Pruning-engine support (see the header comment and core/pruning.h).

  /// \brief Turns the cluster-level bound bookkeeping on/off. Enabling
  /// recomputes every bound from the current aggregates; when off, Move and
  /// RefreshPrototypes skip all bound work.
  void EnableBoundTracking(bool enable);
  bool bound_tracking() const { return track_bounds_; }

  /// \brief Cluster size as the K-Means delta path sees it (the prototype
  /// snapshot count in mini-batch mode, the live count otherwise).
  size_t effective_count(int c) const {
    return (use_snapshot_ ? proto_counts_ : counts_)[static_cast<size_t>(c)];
  }
  /// \brief K-Means factors of the effective counts |C|: the row of
  /// |C|/(|C|+1), the SSE cost factor of adding a point (0 when empty), and
  /// cluster c's |C|/(|C|-1), the SSE gain factor of removing one (0 when
  /// |C| <= 1). Re-derived only when an effective count changes, so the
  /// sweep and the pruning gate divide once per count change rather than
  /// once per candidate.
  const double* addition_factors() const { return eff_addf_.data(); }
  double removal_factor(int c) const {
    return eff_remf_[static_cast<size_t>(c)];
  }

  /// \brief Monotone cumulative drift (Euclidean centroid displacement) of
  /// cluster c's effective centroid.
  double cluster_drift(int c) const { return drift_[static_cast<size_t>(c)]; }
  /// \brief All k drift accumulators as one row.
  const double* cluster_drifts() const { return drift_.data(); }
  /// \brief Monotone cumulative sum of per-event maximum centroid steps
  /// (each Move / prototype refresh contributes the largest single-cluster
  /// displacement it caused). For ANY cluster, the drift accumulated between
  /// two instants is bounded by the difference of this accumulator — the
  /// sound way to age a min-over-clusters lower bound in O(1). (The maximum
  /// of the cumulative per-cluster drifts would NOT be: a cluster below the
  /// max can move without raising it.)
  double cumulative_max_step() const { return max_step_sum_; }
  /// \brief Counts the events that void every per-point bound at once: a
  /// bound-tracking (re)start, which zeroes the drift accumulators, and the
  /// refill of an empty effective cluster, whose new centroid can be
  /// anywhere. SweepPruner treats bounds refreshed under an older count as
  /// stale, so neither event needs a drift charge.
  uint64_t bound_epoch() const { return bound_epoch_; }

  /// \brief Lower bound (un-scaled by lambda) on the fairness-term insertion
  /// cost of moving any point into any cluster other than `from`, from the
  /// cached per-cluster insertion bounds. Combined with
  /// fair_removal_bound(from) this lower-bounds the full fairness change of
  /// any move out of `from`; the two halves stay separate so the pruning
  /// gate's rounding margin can see their pre-cancellation magnitudes.
  double FairInsertionLowerBoundExcluding(int from) const {
    FAIRKM_DCHECK(track_bounds_);
    SyncFairBounds();
    return ins_best_cluster_ == from ? ins_second_ : ins_best_;
  }

  /// \brief Smallest K-Means addition factor |C|/(|C|+1) over candidate
  /// target clusters c != from (0 when some candidate cluster is empty),
  /// against the effective counts.
  double MinAdditionFactorExcluding(int from) const {
    FAIRKM_DCHECK(track_bounds_);
    return addf_best_cluster_ == from ? addf_second_ : addf_best_;
  }

  /// \brief Per-cluster fairness move bounds.
  double fair_removal_bound(int c) const {
    SyncFairBounds();
    return fair_rem_bound_[static_cast<size_t>(c)];
  }
  double fair_insertion_bound(int c) const {
    SyncFairBounds();
    return fair_ins_bound_[static_cast<size_t>(c)];
  }

  /// \brief Exact fairness-term change of removing point i from its current
  /// cluster, in O(|S|) table lookups (bound tracking only). The sum
  /// FairRemovalDelta(i) + FairInsertionDeltaAllClusters(i)[c] equals
  /// DeltaFairnessAllClusters(i)[c] up to summation-order rounding — the
  /// pruning gate's stage 2 uses this split so the shared removal part
  /// prices once per point.
  double FairRemovalDelta(size_t i) const;

  /// \brief Fills `out[c]` (room for k() doubles) with the exact
  /// fairness-term change of inserting point i into cluster c (its removal
  /// not included), for every cluster: one contiguous row sum per attribute
  /// over the value-major insertion table (bound tracking only).
  void FairInsertionDeltaAllClusters(size_t i, double* out) const;

  // --- Model export (the serving tier's frozen-snapshot path, src/serve/).

  /// \brief The live fairness moment tables (core/objective.h): the exact
  /// doubles BestInsertion prices with, so a frozen model snapshot's copy
  /// makes serve::AssignRows reproduce the live insertion delta bit-for-bit.
  const FairnessMomentTables& fairness_moments() const { return moments_; }

  /// \brief Padded row width of the k x stride cluster-sum matrix.
  size_t stride() const { return stride_; }
  /// \brief Live k x stride feature sums (aligned, zero-padded rows).
  const data::AlignedVector& cluster_sums() const { return sums_; }
  /// \brief The fairness-term configuration the aggregates were built under.
  const FairnessTermConfig& config() const { return config_; }
  /// \brief The sensitive view the aggregates count.
  const data::SensitiveView& sensitive() const { return *sensitive_; }

 private:
  FairKMState(std::shared_ptr<const data::PointStore> store,
              const data::SensitiveView* sensitive, int k,
              FairnessTermConfig config);

  void BuildAggregates(cluster::Assignment initial);

  // Sums the rows' features / numeric values per cluster of `assignment`
  // in the canonical chunked row order of a fresh build.
  void SumRows(const cluster::Assignment& assignment,
               data::AlignedVector* sums,
               std::vector<std::vector<double>>* num_sums) const;
  // Counts the cluster sizes and value counts from assignment_. O(n |S|).
  void CountAssignment();
  // Re-derives every pure function of the counts, both sums matrices and
  // the dataset statistics: norm caches, Q2/U2/UQ moments, lane mirrors,
  // K-Means factor rows and, with bound tracking, the bound tables (marked
  // dirty for the lazy path) and the addition-factor pair. Drift is primary
  // and left alone.
  void DeriveAggregates();

  // Recomputes the U2/UQ moments for one (attribute, cluster) pair from the
  // exact integer counts. O(m_a).
  void RecomputeCatMoments(size_t a, int c);

  // Rebuilds every lane mirror (value-major counts, sizes, scale rows) from
  // counts_ / moments_.cat_counts. O(k sum_S m_S).
  void RebuildLaneMirrors();
  // Re-derives cluster c's size and ClusterScale lane entries. O(1).
  void SyncLaneCluster(size_t c);
  // Re-derives the effective-count K-Means factor rows (eff_*_) of one
  // cluster / of every cluster from the effective counts.
  void SyncKMeansFactors(size_t c);
  void SyncAllKMeansFactors();

  // Recomputes cluster c's per-value removal/insertion delta tables (the
  // CatDeltaBounds kernel) and folds their minima plus the numeric-attribute
  // pieces into fair_rem_bound_/fair_ins_bound_. O(sum_S m_S). A pure
  // function of cluster c's current counts and moments.
  void RecomputeFairBounds(int c) const;
  // Rescans the per-cluster insertion bounds for the best/second-best pair.
  void RescanInsertionBounds() const;
  // The fairness bound tables are re-derived lazily: Move only marks its two
  // clusters dirty, and every reader of the tables calls SyncFairBounds(),
  // which recomputes the dirty clusters and rescans the insertion pair. The
  // tables are a pure function of the current counts, so a read sees
  // exactly the values an eager recompute after every Move would have left,
  // while moves between reads (a sweep over points whose pruner bounds are
  // stale) skip the recompute altogether.
  void SyncFairBounds() const {
    if (fair_dirty_count_ != 0) FlushFairBounds();
  }
  void FlushFairBounds() const;
  void MarkFairBoundsDirty(size_t c);
  // Rescans the effective counts for the smallest two addition factors.
  void RescanAdditionFactors();
  // Adds one drift event: per-cluster displacements (any may be 0) plus
  // their max into the max-step accumulator.
  void AccumulateDrift(int c, double displacement);
  void AccumulateMaxStep(double displacement);

  // Squared distance from point i to the mean of the given sums/count pair.
  double DistanceToMean(size_t i, const double* sums, double count) const;

  // Expanded-form squared distance ||x_i||^2 - 2 x.S_c/|C| + ||S_c||^2/|C|^2
  // against live or snapshot aggregates. `count` must be positive.
  double CachedDistanceToMean(size_t i, const double* sums, double sum_norm,
                              double count) const;

  const data::SensitiveView* sensitive_;
  int k_;
  size_t n_;
  size_t d_;
  size_t stride_;  // Padded row width of store_/sums_ (multiple of 4).
  FairnessTermConfig config_;

  // Aligned, lane-padded rows — the layout every hot kernel streams (see
  // data/point_store.h). A private copy on the matrix Create path, else the
  // caller's store (possibly an mmap-backed one shared across sessions).
  std::shared_ptr<const data::PointStore> store_;

  cluster::Assignment assignment_;
  std::vector<size_t> counts_;        // Cluster sizes.
  data::AlignedVector sums_;          // k x stride feature sums (row-major).
  // Per-attribute count/sum tables and the U2/UQ/Q2 fairness moments;
  // U2/UQ are recomputed for the two touched clusters on Move.
  FairnessMomentTables moments_;

  // Lane mirrors for DeltaFairnessAllClusters (see the header comment):
  // lane_counts_[a][v * k + c] = moments_.cat_counts[a][c * m_a + v] as an
  // exact double (counts stay below 2^53), lane_sizes_[c] = |C_c|, and
  // lane_scale_{before,after}_[c] = ClusterScale(|C_c|), ClusterScale(|C_c|+1).
  std::vector<std::vector<double>> lane_counts_;
  std::vector<double> lane_sizes_;
  std::vector<double> lane_scale_before_;
  std::vector<double> lane_scale_after_;
  // Per-point kernel descriptors (scratch; see DeltaFairnessAllClusters).
  mutable std::vector<kernels::FairCatLane> cat_lanes_;
  mutable std::vector<kernels::FairNumLane> num_lanes_;

  // K-Means delta caches: ||x_i||^2 (immutable) and ||S_c||^2 (recomputed
  // for the two touched clusters on Move).
  std::vector<double> point_norms_;
  std::vector<double> sum_norms_;
  double total_point_norm_ = 0.0;  // sum_i ||x_i||^2 (immutable).

  bool use_snapshot_ = false;
  // Per-cluster factors of the effective counts: 1/|C|, |C|/(|C|+1) and
  // |C|/(|C|-1) (0 where undefined), see addition_factors().
  std::vector<double> eff_inv_;
  std::vector<double> eff_addf_;
  std::vector<double> eff_remf_;
  std::vector<size_t> proto_counts_;
  data::AlignedVector proto_sums_;
  std::vector<double> proto_sum_norms_;

  // --- Bound-tracking state (allocated/maintained only when
  // track_bounds_; see EnableBoundTracking).
  bool track_bounds_ = false;
  std::vector<double> drift_;            // Cumulative centroid drift.
  double max_step_sum_ = 0.0;            // Sum of per-event max steps.
  uint64_t bound_epoch_ = 0;             // See bound_epoch().
  // The fairness bound tables below are mutable: const readers bring them
  // up to date through SyncFairBounds() (a cache of the counts, never
  // state of its own; the state is driven from one thread).
  // Per-(attribute, cluster, value) fairness move-delta tables, weighted by
  // w_a * norm_a, the CatDeltaBounds kernel output: removal cluster-major
  // (cat_rem_delta_[a][c * m_a + v], one lookup per point), insertion
  // value-major (cat_ins_delta_[a][v * k + c], one row per point).
  mutable std::vector<std::vector<double>> cat_rem_delta_;
  mutable std::vector<std::vector<double>> cat_ins_delta_;
  // Scratch rows for the kernel (un-weighted), sized max_a m_a.
  mutable std::vector<double> delta_scratch_rem_;
  mutable std::vector<double> delta_scratch_ins_;
  // Per-cluster fairness move bounds (summed over attributes, weighted).
  mutable std::vector<double> fair_rem_bound_;
  mutable std::vector<double> fair_ins_bound_;
  // Best/second-best insertion bound and the best's cluster.
  mutable double ins_best_ = 0.0, ins_second_ = 0.0;
  mutable int ins_best_cluster_ = -1;
  // Clusters whose tables a Move left stale, and how many.
  mutable std::vector<uint8_t> fair_dirty_;
  mutable size_t fair_dirty_count_ = 0;
  // Smallest/second-smallest addition factor and the smallest's cluster,
  // over the effective counts.
  double addf_best_ = 0.0, addf_second_ = 0.0;
  int addf_best_cluster_ = -1;
};

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_FAIRKM_STATE_H_
