// The three benchmark workloads. Each one generates its inputs from the
// seed, repeats its measured pass until the time budget is spent, checks its
// outputs, and records metrics into the Report. With tracing on, passes
// come in traced/untraced pairs, so the same run yields the per-layer
// ledger and the tracing overhead.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "report.h"
#include "serve/assign_service.h"
#include "trace.h"

namespace e2ebench {

struct WorkloadContext {
  uint64_t seed = 0;
  double seconds = 10.0;  ///< Measuring budget; set-up is not counted.
  bool trace = false;
  std::string work_dir;   ///< Scratch directory for files the run writes.
  Report* report = nullptr;
};

fairkm::Status RunCsvReport(const WorkloadContext& ctx);
fairkm::Status RunTrainServe(const WorkloadContext& ctx);
fairkm::Status RunOnlineWindow(const WorkloadContext& ctx);

/// \brief CPUs this process could run on at its first call, ascending.
std::vector<int> UsableCpuList();

/// \brief Pins the calling thread to `cpu` (or, with -1, lets it run on
/// every usable CPU again). Threads inherit their creator's mask, so client
/// threads call PinCurrentThread(-1) first.
void PinCurrentThread(int cpu);

/// \brief Per-run pass bookkeeping shared by the workloads: which passes
/// are traced, their blocking-path times, and the per-layer ledger.
///
/// Each pass pins the main thread to the next usable CPU in turn. On a
/// shared host one CPU can run a quarter slower than another for many
/// seconds, and an unpinned single-threaded run tends to stay where it
/// started; rotating makes every run sample all CPUs, so the median pass
/// is not decided by where the run happened to land.
class PassLedger {
 public:
  /// \brief `min_passes` (at least 2) passes always run, whatever the
  /// budget; the quality figures come from exactly that many restarts.
  PassLedger(const WorkloadContext& ctx, int min_passes);

  /// \brief True while another pass should run: fewer than min_passes ran,
  /// the budget is not spent, or a traced run's last pair is incomplete.
  bool More() const;
  /// \brief Starts the next pass: pins the calling thread to the next CPU
  /// and returns the Trace the pass records into (a disabled one for
  /// untraced passes).
  Trace* NextTrace();
  /// \brief Records a finished pass: its blocking-path time, measured
  /// without tracing help, and the root span id of that path.
  void EndPass(double blocking_s, uint32_t blocking_root);
  int passes() const { return passes_; }
  /// \brief True while the pass about to run counts toward the quality
  /// figures.
  bool QualityPass() const { return passes_ < min_passes_; }
  /// \brief Init seed of the next pass: 42, 43, ... whatever the workload
  /// seed, like fairkm_cli's fixed --seed default. The workload seed draws
  /// the data; keeping the restarts fixed means runs with different seeds
  /// time the same sequence of restarts over samples of one population.
  /// With tracing, a traced and an untraced pass share one seed, so their
  /// times differ only by tracing.
  uint64_t NextInitSeed() const;
  static constexpr uint64_t kFirstInitSeed = 42;

  /// \brief Adds the per-layer metrics (self time per traced pass of every
  /// span name in `layers`, plus the trace.* coverage and overhead
  /// metrics).
  void ReportLayers(Report* report,
                    const std::vector<std::string>& layer_spans) const;
  /// \brief Spans of the traced passes, ordered by start.
  std::vector<Span> TracedSpans() const { return traced_.Spans(); }
  int traced_passes() const { return static_cast<int>(traced_blocking_.size()); }

 private:
  const WorkloadContext& ctx_;
  const int min_passes_;
  const std::vector<int> cpus_;
  fairkm::Timer clock_;
  Trace traced_;
  Trace untraced_;
  int passes_ = 0;
  bool current_traced_ = false;
  std::vector<double> traced_blocking_;
  std::vector<double> untraced_blocking_;
  std::vector<uint32_t> traced_roots_;
};

/// \brief Quality of the best restart: among the quality passes (each its
/// own init seed), the clustering with the lowest Eq. 1 objective, as a
/// multi-restart user would keep it. Random-assignment inits land in
/// different local optima, so a single restart's SSE moves by a quarter
/// from seed to seed; the best of five does not.
struct BestRestart {
  int restarts = 0;
  double objective = 0.0;
  double sse = 0.0;
  double fairness_aw = 0.0;
  double silhouette = 0.0;
  void Offer(double objective_value, double sse_value, double aw_value,
             double silhouette_value = 0.0) {
    if (restarts++ == 0 || objective_value < objective) {
      objective = objective_value;
      sse = sse_value;
      fairness_aw = aw_value;
      silhouette = silhouette_value;
    }
  }
};

/// \brief Seconds-per-pass value of a span name's self time.
double SelfPerPass(const std::vector<Span>& spans, const std::string& name,
                   int passes);

/// \brief Adds `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>` from
/// latencies in seconds (multiplied by `scale`). The p99 is the highest
/// percentile up to 99 with ten samples beyond it; a line names the one
/// used and its counts.
void AddLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<double>& seconds, double scale,
                       const std::string& unit);

/// \brief Adds the core.sweep_* ledger from the traced passes' sweep spans
/// and the per-fit counters (one entry per pass).
void AddSweepLedger(Report* report, const PassLedger& ledger,
                    const std::vector<double>& sweeps,
                    const std::vector<double>& candidates,
                    const std::vector<double>& pruned);

/// \brief AssignService counters summed over the measured serving phases
/// (deltas of AssignService::Metrics() around each phase).
class ServeLedger {
 public:
  void Add(const fairkm::serve::ServeMetrics& before,
           const fairkm::serve::ServeMetrics& after);
  /// \brief Adds the serve.* per-layer metrics. `latencies` are client
  /// latencies in seconds, `wall_s` the summed wall time of the phases.
  void Report(e2ebench::Report* report, const std::vector<double>& latencies,
              double wall_s, int clients, int passes) const;

 private:
  fairkm::serve::ServeMetrics sum_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
