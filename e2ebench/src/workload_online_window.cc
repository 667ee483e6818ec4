// online-window: the online engine under a sliding window with readers.
//
// Set-up generates Adult-shaped rows (GenerateAdultParity at 8x). One pass:
// OnlineFairKM::Create on the first 32k rows with one AssignService, then a
// window of kSteps steps: each step Admits a fresh 64-point batch and
// Retires the 64 oldest ids, so the live row count stays at 32k;
// TriggerResweep runs every 500 batches. Meanwhile 2 client threads score
// fresh 256-point S-blind requests against the republished generations.
// The pass ends with Flush.
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/proc_stats.h"
#include "common/rng.h"
#include "core/fairkm_state.h"
#include "inputs.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"
#include "online/online_fairkm.h"
#include "serve/assign_service.h"
#include "stats.h"
#include "workloads.h"

namespace e2ebench {

using fairkm::Status;
namespace core = fairkm::core;
namespace data = fairkm::data;
namespace metrics = fairkm::metrics;
namespace online = fairkm::online;
namespace serve = fairkm::serve;

namespace {

constexpr int kClusters = 5;
constexpr int kMinPasses = 5;
constexpr double kLambda = 1e6;
constexpr size_t kAdultScale = 8;
constexpr size_t kLiveRows = 32000;
constexpr size_t kBatch = 64;
constexpr size_t kSteps = 1000;
constexpr size_t kResweepEvery = 500;
constexpr size_t kRequestPoints = 256;
constexpr int kClients = 2;

struct PassResult {
  double pipeline_s = 0.0;
  double create_s = 0.0;
  int create_sweeps = 0;
  double stream_s = 0.0;
  std::vector<double> admit_s;
  std::vector<double> retire_s;
  online::OnlineStats stats;
  bool oracle_ok = false;
  bool generations_ok = true;
  double sse = 0.0;
  double fairness_aw = 0.0;
};

// Readers: closed-loop clients scoring fresh S-blind requests until `stop`.
// Each checks that the published generation never goes backwards.
struct Readers {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> points{0};
  std::atomic<bool> generations_ok{true};
  std::vector<std::vector<double>> latencies =
      std::vector<std::vector<double>>(kClients);
  std::vector<std::thread> threads;

  void Start(serve::AssignService* service, const data::Matrix& rows,
             uint64_t seed, Trace* trace, uint32_t parent) {
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([this, service, &rows, seed, trace, parent, c] {
        PinCurrentThread(-1);
        Recorder rec(trace, parent);
        fairkm::Rng rng(seed * 31 + static_cast<uint64_t>(c));
        uint64_t last_version = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const size_t begin = rng.UniformInt(rows.rows() - kRequestPoints);
          const data::Matrix request = SliceRows(rows, begin, kRequestPoints);
          const auto snapshot = service->snapshot();
          const uint64_t version = snapshot ? snapshot->version() : 0;
          if (version < last_version) generations_ok = false;
          last_version = version;
          fairkm::Timer one;
          rec.Begin("serve.assign");
          const auto answer = service->Assign(request);
          rec.End();
          latencies[static_cast<size_t>(c)].push_back(one.ElapsedSeconds());
          if (answer.ok()) {
            points.fetch_add(kRequestPoints);
          } else {
            failed.fetch_add(1);
          }
        }
      });
    }
  }
  void Stop() {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    threads.clear();
  }
  ~Readers() {
    if (!threads.empty()) Stop();
  }
};

Status RunPass(const AdultInputs& inputs, uint64_t init_seed,
               uint64_t request_seed, Trace* trace,
               uint32_t* stream_root, Report* report, Readers* readers,
               serve::ServeMetrics* before, serve::ServeMetrics* after,
               serve::AssignService* service, PassResult* out) {
  online::OnlineOptions options;
  options.solver.k = kClusters;
  options.solver.lambda = kLambda;

  Recorder rec(trace);
  fairkm::Timer pipeline;
  rec.Begin("bench.glue");
  const data::Matrix initial = SliceRows(inputs.features, 0, kLiveRows);
  const data::SensitiveView initial_view =
      SliceView(inputs.sensitive, 0, kLiveRows);
  std::unique_ptr<online::OnlineFairKM> engine;
  {
    fairkm::Timer create;
    ScopedSpan span(&rec, "online.create");
    FAIRKM_ASSIGN_OR_RETURN(engine,
                            online::OnlineFairKM::Create(
                                initial, initial_view, options, init_seed,
                                service));
    out->create_s = create.ElapsedSeconds();
  }
  out->create_sweeps = engine->solver().sweeps_completed();
  std::deque<uint64_t> live;
  for (uint64_t id : engine->LiveIds()) live.push_back(id);

  *before = service->Metrics();
  readers->Start(service, inputs.features, request_seed, trace, 0);
  fairkm::Timer stream;
  *stream_root = rec.Begin("bench.stream");
  uint64_t admit_failed = 0, retire_failed = 0, resweep_failed = 0;
  for (size_t step = 0; step < kSteps; ++step) {
    const size_t begin = kLiveRows + step * kBatch;
    const data::Matrix batch = SliceRows(inputs.features, begin, kBatch);
    const data::SensitiveView view = SliceView(inputs.sensitive, begin, kBatch);
    fairkm::Timer admit;
    fairkm::Result<std::vector<uint64_t>> ids = Status::Internal("unset");
    {
      ScopedSpan span(&rec, "online.admit");
      ids = engine->Admit(batch, &view);
    }
    out->admit_s.push_back(admit.ElapsedSeconds());
    if (!ids.ok()) {
      ++admit_failed;
      break;
    }
    for (uint64_t id : ids.ValueOrDie()) live.push_back(id);
    const std::vector<uint64_t> oldest(live.begin(), live.begin() + kBatch);
    live.erase(live.begin(), live.begin() + kBatch);
    fairkm::Timer retire;
    Status retired;
    {
      ScopedSpan span(&rec, "online.retire");
      retired = engine->Retire(oldest);
    }
    out->retire_s.push_back(retire.ElapsedSeconds());
    if (!retired.ok()) {
      ++retire_failed;
      break;
    }
    if ((step + 1) % kResweepEvery == 0) {
      Status resweep;
      {
        ScopedSpan span(&rec, "online.resweep");
        resweep = engine->TriggerResweep();
      }
      if (!resweep.ok()) {
        ++resweep_failed;
        break;
      }
    }
  }
  rec.End();
  out->stream_s = stream.ElapsedSeconds();
  readers->Stop();
  *after = service->Metrics();
  {
    ScopedSpan span(&rec, "online.flush");
    FAIRKM_RETURN_NOT_OK(engine->Flush());
  }
  rec.End();
  out->pipeline_s = pipeline.ElapsedSeconds();

  const size_t steps = out->admit_s.size();
  report->Count("admits", steps, admit_failed);
  report->Count("retires", out->retire_s.size(), retire_failed);
  report->Count("resweeps", steps / kResweepEvery, resweep_failed);
  if (admit_failed + retire_failed + resweep_failed > 0) {
    return Status::Internal("online-window: a stream operation failed");
  }

  // Output checks, not timed: the flushed live terms equal a from-scratch
  // rebuild over the surviving rows.
  out->stats = engine->Stats();
  const data::Matrix survivors = engine->SurvivingPoints();
  const data::SensitiveView survivor_view = engine->SurvivingSensitive();
  const fairkm::cluster::Assignment assignment = engine->CurrentAssignment();
  FAIRKM_ASSIGN_OR_RETURN(
      core::FairKMState fresh,
      core::FairKMState::Create(&survivors, &survivor_view, kClusters,
                                assignment));
  const core::FairKMState& state = engine->solver().state();
  out->oracle_ok = state.KMeansTermCached() == fresh.KMeansTermCached() &&
                   state.FairnessTermCached() == fresh.FairnessTermCached();
  out->generations_ok = out->stats.generation == 1 + out->stats.resweeps;
  out->sse = metrics::ClusteringObjective(survivors, assignment, kClusters);
  out->fairness_aw =
      metrics::EvaluateFairness(survivor_view, assignment, kClusters).mean.aw;
  return Status::OK();
}

}  // namespace

Status RunOnlineWindow(const WorkloadContext& ctx) {
  Report* report = ctx.report;

  // Set-up, repeated so its time is a median: generate the rows.
  std::vector<double> setup_s;
  AdultInputs inputs;
  uint64_t fingerprint = 0;
  for (int rep = 0; rep < 3; ++rep) {
    fairkm::Timer setup;
    FAIRKM_ASSIGN_OR_RETURN(inputs, GenerateAdultInputs(ctx.seed, kAdultScale));
    setup_s.push_back(setup.ElapsedSeconds());
    const uint64_t fp = Fingerprint(inputs.features, inputs.sensitive);
    if (rep > 0 && fp != fingerprint) {
      report->Check("online-window: generator is deterministic", false);
    }
    fingerprint = fp;
  }
  if (inputs.features.rows() < kLiveRows + kSteps * kBatch + kRequestPoints) {
    return Status::Internal("online-window: generated too few rows");
  }

  PassLedger ledger(ctx, kMinPasses);
  ServeLedger served;
  std::vector<double> pipeline_s, create_s, stream_s, admit_s, retire_s;
  std::vector<double> latencies, resweep_s, flush_s;
  uint64_t reader_failed = 0, reader_requests = 0, reader_points = 0;
  uint64_t admitted = 0;
  bool oracle_ok = true, generations_ok = true;
  BestRestart best;
  online::OnlineStats last_stats;
  while (ledger.More()) {
    const uint64_t init_seed = ledger.NextInitSeed();
    const bool quality_pass = ledger.QualityPass();
    Trace* trace = ledger.NextTrace();
    serve::AssignService service;
    Readers readers;
    serve::ServeMetrics before, after;
    PassResult pass;
    uint32_t root = 0;
    const uint64_t request_seed =
        ctx.seed * 1000 + static_cast<uint64_t>(ledger.passes());
    FAIRKM_RETURN_NOT_OK(RunPass(inputs, init_seed, request_seed, trace, &root,
                                 report, &readers, &before, &after, &service,
                                 &pass));
    service.Shutdown();
    served.Add(before, after);
    std::printf(
        "pass %d: create %.6f s (%d sweeps), stream %.6f s, objective %.9g\n",
        ledger.passes(), pass.create_s, pass.create_sweeps, pass.stream_s,
        pass.stats.last_objective);
    ledger.EndPass(pass.stream_s, root);

    for (const auto& lat : readers.latencies) {
      latencies.insert(latencies.end(), lat.begin(), lat.end());
      reader_requests += lat.size();
    }
    reader_failed += readers.failed.load();
    reader_points += readers.points.load();
    generations_ok = generations_ok && pass.generations_ok &&
                     readers.generations_ok.load();
    oracle_ok = oracle_ok && pass.oracle_ok;
    pipeline_s.push_back(pass.pipeline_s);
    create_s.push_back(pass.create_s);
    stream_s.push_back(pass.stream_s);
    admit_s.insert(admit_s.end(), pass.admit_s.begin(), pass.admit_s.end());
    retire_s.insert(retire_s.end(), pass.retire_s.begin(), pass.retire_s.end());
    admitted += pass.admit_s.size() * kBatch;
    last_stats = pass.stats;
    if (quality_pass) {
      best.Offer(pass.stats.last_objective, pass.sse, pass.fairness_aw);
    }
  }
  report->Check("online-window: flushed live terms equal a from-scratch "
                "FairKMState rebuild",
                oracle_ok);
  report->Check("online-window: published generations are monotonic",
                generations_ok);
  report->Count("requests", reader_requests, reader_failed);

  const size_t n = pipeline_s.size();
  double stream_total = 0.0;
  for (const double s : stream_s) stream_total += s;
  report->Add("setup_s", "s", Median(setup_s), setup_s.size());
  report->Add("pipeline_s", "s", Median(pipeline_s), n);
  report->Add("fit_s", "s", Median(create_s), n);
  report->Add("peak_rss_mib", "MiB",
              static_cast<double>(fairkm::PeakRssBytes()) / (1 << 20), 1);
  const size_t restarts = static_cast<size_t>(best.restarts);
  report->Add("sse", "sum_sq", best.sse, restarts);
  report->Add("fairness_aw", "dist", best.fairness_aw, restarts);
  report->Add("stream_s", "s", Median(stream_s), n);
  report->Add("stream_pps", "1/s", static_cast<double>(admitted) / stream_total,
              n);
  AddLatencyMetrics(report, "admit", admit_s, 1e3, "ms");
  AddLatencyMetrics(report, "assign", latencies, 1e6, "us");
  report->Add("assign_pps", "1/s",
              static_cast<double>(reader_points) / stream_total, n);

  if (ctx.trace) {
    const int passes = ledger.passes();
    ledger.ReportLayers(report, {"bench.glue", "online.create",
                                 "online.resweep", "online.flush"});
    AddLatencyMetrics(report, "online.admit", admit_s, 1e3, "ms");
    AddLatencyMetrics(report, "online.retire", retire_s, 1e3, "ms");
    report->Add("online.stream_pps", "1/s",
                static_cast<double>(admitted) / stream_total, n);
    report->Add("online.resweeps", "count",
                static_cast<double>(last_stats.resweeps), n);
    report->Add("online.generations", "count",
                static_cast<double>(last_stats.generation), n);
    report->Add("online.live_rows", "count",
                static_cast<double>(last_stats.live_rows), n);
    served.Report(report, latencies, stream_total, kClients, passes);
  }
  return Status::OK();
}

}  // namespace e2ebench
