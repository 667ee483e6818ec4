// Durable on-disk form of core::SolverCheckpoint.
//
// The file is a section container (common/io.h) with magic "FKMC" and three
// sections: run metadata, the FairKMState primary state, and (when the run
// prunes) the SweepPruner bound tables, followed in pruned runs by an
// optional fourth holding the stage-1 share of the pruned-candidate count
// (older files lack it and still load). Every double is stored as its raw
// 8-byte image, so a solver restored from disk replays the exact
// trajectory of the in-memory Snapshot()/Restore() path — bit-identical
// assignments, objective history, and pruning counters.
//
// Format version 2 stores only the primary state (FairKMState::Checkpoint:
// assignment, feature and numeric-attribute sums, prototype snapshot, drift
// accumulators); the counts, norm caches, fairness moments and bound tables
// are recomputed on load. Version-1 files, which also carry those derived
// fields, still load: the reader skips the derived fields and recomputes
// them the same way.
//
// Corruption (torn write, truncation, bit rot, or a primary length or
// cluster id that contradicts the file's own n, k or stride) reads as
// kDataLoss — the
// signal FairKMSolver::ResumeFromCheckpointDir uses to quarantine the file
// and fall back to the previous good checkpoint. A file written by a NEWER
// format version reads as kInvalidArgument (intact file, too-old binary),
// and so does one whose meta section sets the retired parallel-sweep byte
// (the removed snapshot-parallel mode; writers always emit 0 there). A
// consistent file that does not fit the loading solver fails the load with
// kInvalidArgument.

#ifndef FAIRKM_CORE_CHECKPOINT_IO_H_
#define FAIRKM_CORE_CHECKPOINT_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/solver.h"

namespace fairkm {
namespace core {

/// \brief Durably writes `cp` to `path` (temp + fsync + atomic rename).
/// Fault scope "checkpoint" (checkpoint.open/.write/.fsync/.rename). Takes
/// `cp` by value and frees each table once it is encoded: a caller that
/// moves its snapshot in never holds it alongside the whole file image.
Status WriteSolverCheckpoint(const std::string& path, SolverCheckpoint cp);

/// \brief Reads and verifies a checkpoint file (format version 1 or 2).
/// kDataLoss on corruption, kNotFound when absent, kInvalidArgument on a
/// newer format version or a checkpoint of the removed parallel sweep mode.
Result<SolverCheckpoint> ReadSolverCheckpoint(const std::string& path);

/// \brief Canonical file name of the checkpoint taken after
/// `sweeps_completed` sweeps: "ckpt-00000012.fkmc". Fixed-width so the
/// lexicographic order of names is the chronological order of checkpoints.
std::string CheckpointFileName(int sweeps_completed);

/// \brief Checkpoint files ("ckpt-*.fkmc") in `dir`, oldest first. An
/// empty list (not an error) when the directory exists but holds none;
/// kNotFound when the directory itself is missing. Quarantined files
/// ("*.corrupt", see QuarantineCheckpoint) never match, so resume and
/// retention pruning both skip them.
Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir);

/// \brief Moves a corrupt checkpoint aside: renames `path` to
/// "<path>.corrupt" (never deletes — the torn frame stays available for a
/// post-mortem, and re-resumes stop re-parsing it). An existing quarantine
/// file of the same name is replaced; the original being already gone is OK.
Status QuarantineCheckpoint(const std::string& path);

/// \brief Drops the oldest checkpoint files in `dir` beyond `keep`
/// (best-effort per file; the first removal error surfaces so a wedged
/// directory is not silent). Quarantined files are not counted and not
/// removed.
Status PruneCheckpointDir(const std::string& dir, int keep);

}  // namespace core
}  // namespace fairkm

#endif  // FAIRKM_CORE_CHECKPOINT_IO_H_
