// adult-train-serve: train a fair model on Adult-shaped data, freeze it,
// and serve it.
//
// Inputs are GenerateAdultParity at 8x (125,456 rows, 8 min-max task
// attributes, all 5 sensitive attributes), in memory. One pass:
//   train: FairKMSolver::Init (k = 5, lambda = 1e6, paper §5.4) -> Sweep()
//          until converged, SaveCheckpoint every 5 sweeps -> CurrentResult ->
//          MakeModelSnapshot -> WriteModelSnapshot -> ReadModelSnapshot;
//   serve: the snapshot read back is published to an AssignService and 3
//          closed-loop clients send fair 256-point requests drawn from a
//          fixed pool, so requests repeat.
// The solver is created and warmed (first Init) during set-up; each pass
// re-Inits it with its own seed.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/proc_stats.h"
#include "common/rng.h"
#include "core/solver.h"
#include "inputs.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"
#include "serve/assign_service.h"
#include "serve/model_snapshot.h"
#include "serve/snapshot_io.h"
#include "stats.h"
#include "workloads.h"

namespace e2ebench {

using fairkm::Status;
namespace core = fairkm::core;
namespace data = fairkm::data;
namespace metrics = fairkm::metrics;
namespace serve = fairkm::serve;

namespace {

constexpr int kClusters = 5;
constexpr int kMinPasses = 5;
constexpr double kLambda = 1e6;
constexpr size_t kAdultScale = 8;
constexpr int kCheckpointEvery = 5;
constexpr size_t kPoolRequests = 64;
constexpr size_t kRequestPoints = 256;
constexpr int kClients = 3;
constexpr int kRequestsPerClient = 4000;

struct Request {
  data::Matrix points;
  data::SensitiveView sensitive;
};

struct Inputs {
  AdultInputs adult;
  std::vector<Request> pool;
};

Status MakeInputs(uint64_t seed, Inputs* out) {
  FAIRKM_ASSIGN_OR_RETURN(out->adult, GenerateAdultInputs(seed, kAdultScale));
  fairkm::Rng rng(seed ^ 0x5EEDC0DEULL);
  const size_t n = out->adult.features.rows();
  out->pool.clear();
  for (size_t r = 0; r < kPoolRequests; ++r) {
    const size_t begin = rng.UniformInt(n - kRequestPoints);
    out->pool.push_back({SliceRows(out->adult.features, begin, kRequestPoints),
                         SliceView(out->adult.sensitive, begin, kRequestPoints)});
  }
  return Status::OK();
}

bool SameModel(const serve::ModelSnapshot& a, const serve::ModelSnapshot& b) {
  const core::ModelExport& x = a.model();
  const core::ModelExport& y = b.model();
  bool same = a.version() == b.version() && x.num_rows == y.num_rows &&
              x.d == y.d && x.stride == y.stride && x.k == y.k &&
              x.lambda == y.lambda &&
              x.config.normalize_domain == y.config.normalize_domain &&
              x.config.weighting == y.config.weighting &&
              x.counts == y.counts && x.centroids == y.centroids &&
              x.centroid_norms == y.centroid_norms &&
              x.moments.cat_counts == y.moments.cat_counts &&
              x.moments.cat_u2 == y.moments.cat_u2 &&
              x.moments.cat_uq == y.moments.cat_uq &&
              x.moments.cat_q2 == y.moments.cat_q2 &&
              x.moments.num_sums == y.moments.num_sums &&
              x.categorical.size() == y.categorical.size() &&
              x.numeric.size() == y.numeric.size();
  for (size_t i = 0; same && i < x.categorical.size(); ++i) {
    same = x.categorical[i].name == y.categorical[i].name &&
           x.categorical[i].cardinality == y.categorical[i].cardinality &&
           x.categorical[i].dataset_fractions ==
               y.categorical[i].dataset_fractions &&
           x.categorical[i].weight == y.categorical[i].weight;
  }
  for (size_t i = 0; same && i < x.numeric.size(); ++i) {
    same = x.numeric[i].name == y.numeric[i].name &&
           x.numeric[i].dataset_mean == y.numeric[i].dataset_mean &&
           x.numeric[i].weight == y.numeric[i].weight;
  }
  return same;
}

// Train pass: Init -> sweeps with checkpoints -> result -> snapshot
// make/write/read. `written`/`read` receive the two snapshots.
struct FitResult {
  double fit_s = 0.0;
  int sweeps = 0;
  int checkpoints = 0;
  uint64_t candidates = 0;
  uint64_t pruned = 0;
  uint64_t checkpoint_bytes = 0;
  double objective = 0.0;
  fairkm::cluster::Assignment assignment;
  std::shared_ptr<const serve::ModelSnapshot> written;
  std::shared_ptr<const serve::ModelSnapshot> read;
};

Status Fit(core::FairKMSolver* solver, uint64_t init_seed, uint64_t version,
           const std::string& dir, Recorder* rec, Report* report,
           FitResult* out) {
  const std::string checkpoint = dir + "/solver.fkmc";
  const std::string snapshot = dir + "/model.fkms";
  fairkm::Timer fit;
  {
    ScopedSpan span(rec, "core.init");
    FAIRKM_RETURN_NOT_OK(solver->Init(init_seed));
  }
  for (bool moved = true; moved;) {
    fairkm::Result<bool> swept = false;
    {
      ScopedSpan span(rec, "core.sweep");
      swept = solver->Sweep();
    }
    FAIRKM_RETURN_NOT_OK(swept.status());
    moved = swept.ValueOrDie();
    if (moved && solver->sweeps_completed() % kCheckpointEvery == 0) {
      Status saved;
      {
        ScopedSpan span(rec, "core.checkpoint_save");
        saved = solver->SaveCheckpoint(checkpoint);
      }
      report->Count("checkpoint_saves", 1, saved.ok() ? 0 : 1);
      FAIRKM_RETURN_NOT_OK(saved);
      ++out->checkpoints;
    }
  }
  core::FairKMResult result;
  {
    ScopedSpan span(rec, "core.result");
    FAIRKM_ASSIGN_OR_RETURN(result, solver->CurrentResult());
  }
  {
    ScopedSpan span(rec, "serve.snapshot_make");
    FAIRKM_ASSIGN_OR_RETURN(out->written,
                            serve::MakeModelSnapshot(*solver, version));
  }
  Status wrote;
  {
    ScopedSpan span(rec, "serve.snapshot_write");
    wrote = serve::WriteModelSnapshot(snapshot, *out->written);
  }
  report->Count("snapshot_writes", 1, wrote.ok() ? 0 : 1);
  FAIRKM_RETURN_NOT_OK(wrote);
  {
    ScopedSpan span(rec, "serve.snapshot_read");
    FAIRKM_ASSIGN_OR_RETURN(out->read, serve::ReadModelSnapshot(snapshot));
  }
  out->fit_s = fit.ElapsedSeconds();

  out->sweeps = solver->sweeps_completed();
  out->candidates = result.total_candidates;
  out->pruned = result.pruned_candidates;
  out->objective = result.total_objective;
  out->assignment = std::move(result.assignment);
  if (out->checkpoints > 0) {
    std::error_code ec;
    out->checkpoint_bytes = std::filesystem::file_size(checkpoint, ec);
  }
  return Status::OK();
}

// Closed-loop serving burst: kClients threads, each sending
// kRequestsPerClient pooled requests back to back. Appends every request's
// latency (seconds) and returns the burst's wall time.
double ServeBurst(serve::AssignService* service, const std::vector<Request>& pool,
                  Trace* trace, uint32_t parent, std::vector<double>* latencies,
                  std::atomic<uint64_t>* failed, std::atomic<uint64_t>* points) {
  std::vector<std::vector<double>> per_client(kClients);
  fairkm::Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PinCurrentThread(-1);
      Recorder rec(trace, parent);
      std::vector<double>& lat = per_client[static_cast<size_t>(c)];
      lat.reserve(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const Request& req =
            pool[static_cast<size_t>(c * 17 + r) % pool.size()];
        fairkm::Timer one;
        rec.Begin("serve.assign");
        const auto answer = service->Assign(req.points, &req.sensitive);
        rec.End();
        lat.push_back(one.ElapsedSeconds());
        if (answer.ok()) {
          points->fetch_add(req.points.rows());
        } else {
          failed->fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = wall.ElapsedSeconds();
  for (const auto& lat : per_client) {
    latencies->insert(latencies->end(), lat.begin(), lat.end());
  }
  return seconds;
}

}  // namespace

Status RunTrainServe(const WorkloadContext& ctx) {
  Report* report = ctx.report;
  core::FairKMOptions options;
  options.k = kClusters;
  options.lambda = kLambda;

  // Set-up, repeated so its time is a median: generate the inputs and the
  // request pool, create the solver and warm its caches with a first Init.
  std::vector<double> setup_s;
  Inputs inputs;
  std::unique_ptr<core::FairKMSolver> solver;
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < 3; ++rep) {
    fairkm::Timer setup;
    solver.reset();
    FAIRKM_RETURN_NOT_OK(MakeInputs(ctx.seed, &inputs));
    FAIRKM_ASSIGN_OR_RETURN(
        core::FairKMSolver created,
        core::FairKMSolver::Create(&inputs.adult.features,
                                   &inputs.adult.sensitive, options));
    solver = std::make_unique<core::FairKMSolver>(std::move(created));
    FAIRKM_RETURN_NOT_OK(solver->Init(ctx.seed));
    setup_s.push_back(setup.ElapsedSeconds());
    const uint64_t fp = Fingerprint(inputs.adult.features, inputs.adult.sensitive);
    if (rep > 0 && fp != fingerprint) {
      report->Check("train-serve: generator is deterministic", false);
    }
    fingerprint = fp;
  }

  serve::AssignService service;
  PassLedger ledger(ctx, kMinPasses);
  std::vector<double> pipeline_s, fit_s, latencies, sweeps, candidates, pruned;
  std::vector<double> checkpoint_bytes, burst_s;
  std::atomic<uint64_t> failed{0}, points{0};
  ServeLedger served;
  bool parity_ok = true, snapshot_ok = true;
  BestRestart best;
  while (ledger.More()) {
    const uint64_t init_seed = ledger.NextInitSeed();
    const bool quality_pass = ledger.QualityPass();
    Trace* trace = ledger.NextTrace();
    FitResult fit;
    uint32_t root = 0;
    {
      Recorder rec(trace);
      root = rec.Begin("bench.glue");
      FAIRKM_RETURN_NOT_OK(Fit(solver.get(), init_seed,
                               static_cast<uint64_t>(ledger.passes() + 1),
                               ctx.work_dir, &rec, report, &fit));
      rec.End();
    }

    // Output checks, not timed: the snapshot read back equals the one
    // written, and the service answers each pooled request exactly as the
    // solver's own Assign does.
    snapshot_ok = snapshot_ok && SameModel(*fit.written, *fit.read);
    service.Publish(fit.read);
    for (const Request& req : inputs.pool) {
      const auto served = service.Assign(req.points, &req.sensitive);
      const auto direct = solver->Assign(req.points, req.sensitive);
      parity_ok = parity_ok && served.ok() && direct.ok() &&
                  served.ValueOrDie() == direct.ValueOrDie();
    }
    const serve::ServeMetrics before = service.Metrics();

    uint32_t burst_root = 0;
    double burst = 0.0;
    {
      Recorder rec(trace);
      burst_root = rec.Begin("serve.burst");
      burst = ServeBurst(&service, inputs.pool, trace, burst_root, &latencies,
                         &failed, &points);
      rec.End();
    }
    const serve::ServeMetrics after = service.Metrics();
    served.Add(before, after);

    std::printf("pass %d: fit_s %.6f, %d sweeps, objective %.9g, burst %.6f s\n",
                ledger.passes(), fit.fit_s, fit.sweeps, fit.objective, burst);
    ledger.EndPass(fit.fit_s, root);
    pipeline_s.push_back(fit.fit_s + burst);
    fit_s.push_back(fit.fit_s);
    burst_s.push_back(burst);
    sweeps.push_back(fit.sweeps);
    candidates.push_back(static_cast<double>(fit.candidates));
    pruned.push_back(static_cast<double>(fit.pruned));
    checkpoint_bytes.push_back(static_cast<double>(fit.checkpoint_bytes));
    if (quality_pass) {
      best.Offer(fit.objective,
                 metrics::ClusteringObjective(inputs.adult.features,
                                              fit.assignment, kClusters),
                 metrics::EvaluateFairness(inputs.adult.sensitive,
                                           fit.assignment, kClusters)
                     .mean.aw);
    }
  }
  service.Shutdown();
  report->Check("train-serve: snapshot read back equals the one written",
                snapshot_ok);
  report->Check("train-serve: AssignService equals FairKMSolver::Assign on "
                "every pooled request",
                parity_ok);
  const int passes = ledger.passes();
  const uint64_t requests = static_cast<uint64_t>(passes) * kClients *
                            kRequestsPerClient;
  report->Count("requests", requests, failed.load());

  const size_t n = pipeline_s.size();
  report->Add("setup_s", "s", Median(setup_s), setup_s.size());
  report->Add("pipeline_s", "s", Median(pipeline_s), n);
  report->Add("fit_s", "s", Median(fit_s), n);
  report->Add("peak_rss_mib", "MiB",
              static_cast<double>(fairkm::PeakRssBytes()) / (1 << 20), 1);
  const size_t restarts = static_cast<size_t>(best.restarts);
  report->Add("sse", "sum_sq", best.sse, restarts);
  report->Add("fairness_aw", "dist", best.fairness_aw, restarts);
  double burst_total = 0.0;
  for (const double b : burst_s) burst_total += b;
  AddLatencyMetrics(report, "assign", latencies, 1e6, "us");
  report->Add("assign_pps", "1/s",
              static_cast<double>(points.load()) / burst_total, burst_s.size());

  if (ctx.trace) {
    ledger.ReportLayers(report, {"bench.glue", "core.init", "core.result",
                                 "core.checkpoint_save", "serve.snapshot_make",
                                 "serve.snapshot_write", "serve.snapshot_read"});
    AddSweepLedger(report, ledger, sweeps, candidates, pruned);
    report->Add("core.checkpoint_bytes", "bytes", Median(checkpoint_bytes),
                checkpoint_bytes.size());
    served.Report(report, latencies, burst_total, kClients, passes);
  }
  return Status::OK();
}

}  // namespace e2ebench
