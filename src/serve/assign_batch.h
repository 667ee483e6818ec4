// Batched out-of-sample assignment against a frozen ModelSnapshot.
//
// FairKMSolver::Assign (through FairKMState::BestInsertion) scores one point
// at a time with a naive O(d) distance loop per candidate cluster.
// AssignBatch scores whole request batches through the aligned kernel path
// instead: each point row is streamed
// directly from the request matrix when it already has the kernel layout
// (width == padded stride, 32-byte-aligned storage), else copied once into a
// lane-padded 32-byte-aligned scratch block; its x·mu_c against ALL k
// centroids comes from one GemvAligned pass over the snapshot's k x stride
// centroid matrix, and the squared distance uses the expanded form
//
//   d(x, mu_c)^2 = ||x||^2 - 2 x·mu_c + ||mu_c||^2
//
// with ||mu_c||^2 cached in the snapshot at export time (one Dot per point
// for ||x||^2). The Eq. 1 insertion cost on top is the scalar path's: the
// same |C|/(|C|+1) division, plus lambda times core::FairnessInsertionDelta
// (core/objective.h) evaluated over the snapshot's frozen copy of the moment
// tables, and requests pass the same data::ValidateRequestView. So the two
// paths pick IDENTICAL argmin clusters (the expanded-form distance differs
// from the naive two-loop distance only by floating-point reassociation,
// which the argmin with its deterministic smallest-id tie-break tolerates;
// tests/serve_assign_test.cc locks the bit-identical-assignment contract in
// every backend).
//
// Everything here reads only the immutable snapshot — safe to call from any
// number of threads concurrently, including while the exporting solver keeps
// sweeping.

#ifndef FAIRKM_SERVE_ASSIGN_BATCH_H_
#define FAIRKM_SERVE_ASSIGN_BATCH_H_

#include <cstdint>
#include <vector>

#include "cluster/types.h"
#include "common/status.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "serve/model_snapshot.h"

namespace fairkm {
namespace serve {

/// \brief Reusable per-thread scoring buffers (padded point block, per-
/// cluster dot row, gathered sensitive values). Pass one to repeated
/// AssignBatch calls to make the steady state allocation-free; a null
/// scratch makes the call self-contained.
struct AssignScratch {
  data::AlignedVector padded;    ///< Block of lane-padded point rows.
  std::vector<double> dots;      ///< One x·mu_c row (k wide).
  std::vector<size_t> cand;      ///< Non-empty cluster ids, ascending.
  std::vector<double> scale;     ///< Per-cluster |C|/(|C|+1) insertion scale.
  std::vector<int32_t> codes;    ///< Gathered categorical codes of one point.
  std::vector<double> values;    ///< Gathered numeric values of one point.
};

/// \brief Validates a request against the snapshot: feature width, finite
/// coordinates, and — when a sensitive view is given —
/// data::ValidateRequestView against the snapshot's attribute structure.
Status ValidateAssignInputs(const ModelSnapshot& snapshot,
                            const data::Matrix& new_points,
                            const data::SensitiveView* new_sensitive);

/// \brief Scores rows [begin, end) of `new_points` into out[begin..end).
/// Inputs must already be validated (ValidateAssignInputs) and the snapshot
/// must have at least one non-empty cluster. `out` must hold
/// new_points.rows() entries. The AssignService uses this directly for its
/// per-request batching; most callers want AssignBatch.
void AssignRows(const ModelSnapshot& snapshot, const data::Matrix& new_points,
                size_t begin, size_t end,
                const data::SensitiveView* new_sensitive,
                AssignScratch* scratch, cluster::Assignment* out);

/// \brief Batched counterpart of FairKMSolver::Assign: maps every row of
/// `new_points` to the non-empty cluster minimizing its Eq. 1 insertion
/// cost, adding the fairness term iff `new_sensitive` is non-null. Returns
/// the same assignments as the scalar solver path on the exporting solver.
Result<cluster::Assignment> AssignBatch(
    const ModelSnapshot& snapshot, const data::Matrix& new_points,
    const data::SensitiveView* new_sensitive = nullptr,
    AssignScratch* scratch = nullptr);

}  // namespace serve
}  // namespace fairkm

#endif  // FAIRKM_SERVE_ASSIGN_BATCH_H_
