// OnlineFairKM — incremental admit/retire over a live FairKM session with a
// drift-triggered bounded re-sweep loop.
//
// The paper's Algorithm 1 is a batch trainer, but every aggregate the sweep
// maintains (cluster counts/sums/norms, the fairness moment tables, the
// pruner bounds) already updates incrementally per move. This engine turns
// that into a long-lived service:
//
//   * Admit(points, sensitive): the batch passes data::ValidateRequestView
//     (the check solver Assign and the serve tier run), then each admitted
//     point is placed by FairKMState::BestInsertion — its exact Eq. 1
//     insertion cost |C|/(|C|+1) d(x, mu_C)^2 plus lambda times
//     core::FairnessInsertionDelta, the scorer solver Assign uses — scored
//     LIVE, so the second point of a batch prices against the aggregates the
//     first one shifted. The point lands in a growable `mem`
//     PointStore (a read-only mmap store refuses with an actionable
//     kInvalidArgument), the state adopts it via AdmitAppended, and the
//     caller gets back a stable uint64 id.
//   * Retire(ids): stable ids resolve through a row map maintained across
//     the swap-with-last removals of PointStore::SwapRemoveRow, so retiring
//     never rebuilds state — aggregates are decremented (RetireSwapped) and
//     the last row slides into the hole.
//   * After every admit/retire batch the engine refreshes the dataset-level
//     fairness distribution (fractions and means depend on n) from an
//     integer count per (attribute, value) and an exact sum per numeric
//     attribute, both updated row by row; refreshes the moment tables in
//     O(k sum_S |S|); and re-synchronizes the solver with the new row count
//     (SyncStoreGrowth resizes the pruner's tables in place, every row
//     stale). None of it passes over the live rows: a batch of b points
//     costs O(b k (d + |S|)) to score and adopt plus O(k sum_S |S|).
//   * Numeric means are exact: after any admit or retire, dataset_mean is
//     the correctly rounded sum of the live values (common ExactSum) divided
//     by n — the same double for every admission order and the same double
//     a from-scratch pass over the survivors computes. Create and Recover
//     keep the distribution they are handed until the first membership
//     change.
//   * Drift monitor: the maintained per-point objective is compared against
//     the baseline recorded at the last (re-)train. A regression past
//     DriftPolicy::regression_tolerance — or a non-finite reading, injected
//     in tests through the shared "supervisor.objective" fault point —
//     triggers exactly one bounded re-sweep: a canonical Flush() rebuild,
//     then at most resweep_max_sweeps Algorithm-1 sweeps, then a republish.
//     This is the core::SupervisedRunner watchdog loop with "roll back"
//     swapped for "re-optimize in place".
//   * Republish: each re-sweep (and the initial train, and a recovery)
//     freezes a serve::ModelSnapshot with a monotonically increasing
//     generation and hands it to the optional AssignService via its atomic
//     snapshot swap — writers admit while readers assign, and a reader
//     never observes a torn generation.
//   * Durability: Checkpoint() persists the engine (rows, ids, sensitive
//     view, stats) in a CRC-framed section file ("FKOL") next to a PR 7
//     solver checkpoint ("FKMC", bit-exact float state); Recover() restores
//     both, falling back to a canonical warm-start rebuild when the solver
//     file is lost or torn.
//
// Consistency anchor (tested property): after ANY admit/retire sequence
// followed by Flush(), the fairness moments, counts, and objective are
// bit-identical to a from-scratch FairKMState::Create over the surviving
// points in engine row order — the incremental cluster aggregates can drift
// numerically (floating-point summation order), the flushed ones cannot.
// The dataset distribution does not drift at all: from the first admit or
// retire on, it is exact at every step.
//
// Threading: one internal mutex serializes every mutating call (Admit /
// Retire / Flush / TriggerResweep / Checkpoint) and the stats reads; any
// thread may call them. Readers go through the AssignService, which never
// touches the live solver. The engine owns its point store and sensitive
// view, so it is non-movable; Create/Recover return it on the heap.

#ifndef FAIRKM_ONLINE_ONLINE_FAIRKM_H_
#define FAIRKM_ONLINE_ONLINE_FAIRKM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/solver.h"
#include "data/matrix.h"
#include "data/point_store.h"
#include "data/sensitive.h"
#include "serve/assign_service.h"

namespace fairkm {
namespace online {

/// \brief When and how hard the drift monitor reacts.
struct DriftPolicy {
  /// Relative per-point objective regression (against the baseline recorded
  /// at the last train/re-sweep) that triggers a bounded re-sweep. The
  /// comparison is `per_point > baseline + tolerance * max(1, |baseline|)`;
  /// a non-finite objective always triggers (NaN fails every comparison),
  /// mirroring the supervisor's non-finite rollback rule.
  double regression_tolerance = 0.05;
  /// Algorithm-1 sweeps one drift response may spend (RunBudget.max_sweeps).
  int resweep_max_sweeps = 2;
};

/// \brief Engine construction knobs.
struct OnlineOptions {
  /// Solver configuration of the owned session (k, lambda, mini-batching,
  /// pruning — every FairKMOptions knob applies).
  core::FairKMOptions solver;
  DriftPolicy drift;
  /// When non-empty, every re-sweep (and explicit Checkpoint() call) writes
  /// a durable engine + solver checkpoint pair here for Recover().
  std::string checkpoint_dir;
};

/// \brief Point-in-time counters of an engine.
struct OnlineStats {
  uint64_t admitted = 0;       ///< Points admitted over the engine lifetime.
  uint64_t retired = 0;        ///< Points retired over the engine lifetime.
  uint64_t resweeps = 0;       ///< Drift-triggered (or forced) re-sweeps.
  uint64_t flushes = 0;        ///< Canonical rebuilds (Flush + re-sweep prep).
  uint64_t generation = 0;     ///< Latest published snapshot generation.
  size_t live_rows = 0;        ///< Surviving points right now.
  double last_objective = 0.0; ///< Cached Eq. 1 objective right now.
  double baseline_per_point = 0.0;  ///< Drift baseline (objective / n).
};

/// \brief Live admit/retire engine over an owned FairKM session.
class OnlineFairKM {
 public:
  /// \brief Trains an initial model over `initial_points` (solver Init from
  /// `seed` + Run to convergence under the solver options), assigns stable
  /// ids 1..n to the initial rows, publishes generation 1 to `service` (may
  /// be null — the engine then only tracks generations), and, when a
  /// checkpoint_dir is configured, writes the first durable checkpoint.
  static Result<std::unique_ptr<OnlineFairKM>> Create(
      const data::Matrix& initial_points,
      const data::SensitiveView& initial_sensitive,
      const OnlineOptions& options, uint64_t seed,
      serve::AssignService* service = nullptr);

  /// \brief Restores an engine from `options.checkpoint_dir`: the "FKOL"
  /// engine file rebuilds the store, sensitive view, id map and stats; the
  /// sibling solver checkpoint restores the bit-exact float state, falling
  /// back to a canonical warm-start rebuild from the saved assignment when
  /// it is missing or torn. Publishes a fresh generation on success.
  static Result<std::unique_ptr<OnlineFairKM>> Recover(
      const OnlineOptions& options, serve::AssignService* service = nullptr);

  OnlineFairKM(const OnlineFairKM&) = delete;
  OnlineFairKM& operator=(const OnlineFairKM&) = delete;

  /// \brief Admits a batch: each row is scored by its live Eq. 1 insertion
  /// cost (FairKMState::BestInsertion) and appended to the store/state. When
  /// the training view carries sensitive attributes, `sensitive` must pass
  /// data::ValidateRequestView against it (the FairKMSolver::Assign
  /// contract); with an attribute-free view it may be null. Returns the
  /// stable ids, in row order. The whole batch is validated before the first
  /// row is admitted.
  Result<std::vector<uint64_t>> Admit(
      const data::Matrix& points,
      const data::SensitiveView* sensitive = nullptr);

  /// \brief Retires previously admitted points by id. The batch is
  /// validated up front (unknown or duplicate ids, or retiring every live
  /// point, reject the whole call with no state change). O(d + |S|) per id,
  /// plus the O(k sum_S |S|) per-batch refresh.
  Status Retire(const std::vector<uint64_t>& ids);

  /// \brief Canonical rebuild: every aggregate, moment table and bound is
  /// recomputed from scratch over the surviving rows (the oracle contract in
  /// the header comment). The assignment is unchanged.
  Status Flush();

  /// \brief Forces one bounded re-sweep (Flush + budgeted Run + republish +
  /// durable checkpoint), regardless of the drift monitor — the test/bench
  /// hook for exercising the drift path deterministically.
  Status TriggerResweep();

  /// \brief Freezes the current model and publishes it to the service with
  /// the next generation number (no-op generation bump without a service).
  Status PublishSnapshot();

  /// \brief Writes the durable engine + solver checkpoint pair now.
  /// Requires a configured checkpoint_dir.
  Status Checkpoint();

  OnlineStats Stats() const;

  /// \brief Live ids in engine row order (test/introspection helper).
  std::vector<uint64_t> LiveIds() const;

  /// \brief Copy of the surviving rows in engine row order — the point set
  /// the oracle rebuild runs over.
  data::Matrix SurvivingPoints() const;

  /// \brief Copy of the engine's sensitive view (current fractions/means).
  data::SensitiveView SurvivingSensitive() const;

  /// \brief Copy of the current assignment in engine row order.
  cluster::Assignment CurrentAssignment() const;

  /// \brief The owned session. NOT synchronized: touch only while no other
  /// thread is inside a mutating engine call (tests quiesce first).
  const core::FairKMSolver& solver() const { return *solver_; }

 private:
  OnlineFairKM(OnlineOptions options, serve::AssignService* service)
      : options_(std::move(options)), service_(service) {}

  // All Locked helpers require mu_ held.
  void AssignInitialIdsLocked();
  void BuildDistributionLocked();
  void RefreshViewLocked();
  Status SyncAfterMembershipChangeLocked();
  Status FlushLocked();
  Status MaybeResweepLocked();
  Status ResweepLocked();
  Status PublishLocked();
  Status CheckpointLocked();

  OnlineOptions options_;
  serve::AssignService* service_;  // Not owned; may be null.

  mutable std::mutex mu_;
  std::shared_ptr<data::PointStore> store_;  // Growable mem store (owned).
  data::SensitiveView view_;                 // Owned; solver points at it.
  std::unique_ptr<core::FairKMSolver> solver_;

  // Stable-id row map: row_ids_[row] is the id living at that store row;
  // id_to_row_ inverts it. Retirement mirrors the store's swap-with-last.
  std::vector<uint64_t> row_ids_;
  std::unordered_map<uint64_t, size_t> id_to_row_;
  uint64_t next_id_ = 1;

  // The dataset-level distribution, kept per admitted/retired row so a batch
  // never rescans the live rows: code_counts_[a][s] counts the rows with
  // value s of categorical attribute a; value_sums_[a] is the exact sum of
  // numeric attribute a.
  std::vector<std::vector<int64_t>> code_counts_;
  std::vector<ExactSum> value_sums_;

  uint64_t generation_ = 0;
  double baseline_per_point_ = 0.0;
  uint64_t admitted_ = 0;
  uint64_t retired_ = 0;
  uint64_t resweeps_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace online
}  // namespace fairkm

#endif  // FAIRKM_ONLINE_ONLINE_FAIRKM_H_
