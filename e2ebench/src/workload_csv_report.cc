// csv-report-100k: what fairkm_cli runs by default, called in-process.
//
// Set-up writes a generated CSV (100k rows x 32 numeric columns plus three
// categorical sensitive columns with 2, 5 and 12 values). One pass is the
// CLI's path: ReadCsvFile -> Dataset::FromCsv -> MakeSensitiveView ->
// ToMatrix -> MinMaxNormalize -> FairKMSolver (k = 8, lambda auto, library
// defaults) -> ClusteringObjective / SilhouetteScore / EvaluateFairness ->
// WriteCsvFile with a cluster column.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/proc_stats.h"
#include "core/solver.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "data/sensitive.h"
#include "inputs.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"
#include "stats.h"
#include "workloads.h"

namespace e2ebench {

using fairkm::Status;
namespace core = fairkm::core;
namespace data = fairkm::data;
namespace metrics = fairkm::metrics;

namespace {

constexpr int kClusters = 8;
constexpr int kMinPasses = 3;

struct PassResult {
  double pipeline_s = 0.0;
  double fit_s = 0.0;
  double kmeans_term = 0.0;
  double objective = 0.0;
  double sse = 0.0;
  double silhouette = 0.0;
  double fairness_aw = 0.0;
  int sweeps = 0;
  uint64_t candidates = 0;
  uint64_t pruned = 0;
};

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

// One pass of the CLI path. Every library call is one span.
Status RunPass(const std::string& input, const std::string& output,
               const CsvShape& shape, uint64_t init_seed, Trace* trace,
               uint32_t* root, PassResult* out) {
  Recorder rec(trace);
  fairkm::Timer pipeline;
  *root = rec.Begin("bench.glue");

  fairkm::CsvTable csv;
  {
    ScopedSpan span(&rec, "common.csv_read");
    FAIRKM_ASSIGN_OR_RETURN(csv, fairkm::ReadCsvFile(input));
  }
  data::Dataset dataset;
  {
    ScopedSpan span(&rec, "data.from_csv");
    FAIRKM_ASSIGN_OR_RETURN(dataset, data::Dataset::FromCsv(csv));
  }
  data::SensitiveView sensitive;
  {
    ScopedSpan span(&rec, "data.sensitive_view");
    FAIRKM_ASSIGN_OR_RETURN(
        sensitive, data::MakeSensitiveView(dataset, CsvSensitiveNames(shape)));
  }
  data::Matrix matrix;
  {
    ScopedSpan span(&rec, "data.to_matrix");
    FAIRKM_ASSIGN_OR_RETURN(matrix, dataset.ToMatrix(dataset.NumericNames()));
  }
  {
    ScopedSpan span(&rec, "data.scale");
    data::MinMaxNormalize(&matrix);
  }

  fairkm::Timer fit;
  core::FairKMOptions options;
  options.k = kClusters;
  fairkm::Result<core::FairKMSolver> created = Status::Internal("unset");
  {
    ScopedSpan span(&rec, "core.create");
    created = core::FairKMSolver::Create(&matrix, &sensitive, options);
  }
  FAIRKM_RETURN_NOT_OK(created.status());
  core::FairKMSolver solver = std::move(created).ValueOrDie();
  {
    ScopedSpan span(&rec, "core.init");
    FAIRKM_RETURN_NOT_OK(solver.Init(init_seed));
  }
  // Sweep() returns false once the run converged or hit max_iterations.
  for (bool moved = true; moved;) {
    fairkm::Result<bool> swept = false;
    {
      ScopedSpan span(&rec, "core.sweep");
      swept = solver.Sweep();
    }
    FAIRKM_RETURN_NOT_OK(swept.status());
    moved = swept.ValueOrDie();
  }
  core::FairKMResult result;
  {
    ScopedSpan span(&rec, "core.result");
    FAIRKM_ASSIGN_OR_RETURN(result, solver.CurrentResult());
  }
  out->fit_s = fit.ElapsedSeconds();

  {
    ScopedSpan span(&rec, "metrics.objective");
    out->sse = metrics::ClusteringObjective(matrix, result.assignment, kClusters);
  }
  {
    ScopedSpan span(&rec, "metrics.silhouette");
    out->silhouette =
        metrics::SilhouetteScore(matrix, result.assignment, kClusters);
  }
  {
    ScopedSpan span(&rec, "metrics.fairness");
    out->fairness_aw =
        metrics::EvaluateFairness(sensitive, result.assignment, kClusters)
            .mean.aw;
  }

  // The CLI appends the cluster column to the input table it read.
  csv.header.push_back("cluster");
  for (size_t i = 0; i < csv.rows.size(); ++i) {
    csv.rows[i].push_back(std::to_string(result.assignment[i]));
  }
  {
    ScopedSpan span(&rec, "common.csv_write");
    FAIRKM_RETURN_NOT_OK(fairkm::WriteCsvFile(csv, output));
  }
  rec.End();
  out->pipeline_s = pipeline.ElapsedSeconds();

  out->kmeans_term = result.kmeans_term;
  out->objective = result.total_objective;
  out->sweeps = solver.sweeps_completed();
  out->candidates = result.total_candidates;
  out->pruned = result.pruned_candidates;
  return Status::OK();
}

// Output check: n rows and every cluster id in [0, k).
void CheckOutputCsv(const std::string& path, size_t rows, Report* report) {
  auto table = fairkm::ReadCsvFile(path);
  if (!table.ok()) {
    report->Check("csv-report: output CSV readable", false,
                  table.status().ToString());
    return;
  }
  const fairkm::CsvTable& t = table.ValueOrDie();
  const bool shape_ok = t.num_rows() == rows && !t.header.empty() &&
                        t.header.back() == "cluster";
  report->Check("csv-report: output CSV has n rows and a cluster column",
                shape_ok,
                std::to_string(t.num_rows()) + " rows, expected " +
                    std::to_string(rows));
  bool ids_ok = shape_ok;
  for (size_t i = 0; ids_ok && i < t.num_rows(); ++i) {
    const std::string& cell = t.rows[i].back();
    char* end = nullptr;
    const long id = std::strtol(cell.c_str(), &end, 10);
    ids_ok = end != cell.c_str() && *end == '\0' && id >= 0 && id < kClusters;
  }
  report->Check("csv-report: cluster ids in [0, k)", ids_ok);
}

}  // namespace

Status RunCsvReport(const WorkloadContext& ctx) {
  Report* report = ctx.report;
  const CsvShape shape;
  const std::string input = ctx.work_dir + "/input.csv";
  const std::string output = ctx.work_dir + "/output.csv";

  // Set-up, repeated so its time is a median: generate and write the CSV.
  std::vector<double> setup_s;
  std::string first_text;
  for (int rep = 0; rep < 3; ++rep) {
    fairkm::Timer setup;
    const std::string text = GenerateCsvText(shape, ctx.seed);
    FAIRKM_RETURN_NOT_OK(WriteFile(input, text));
    setup_s.push_back(setup.ElapsedSeconds());
    if (rep == 0) {
      first_text = text;
    } else if (text != first_text) {
      report->Check("csv-report: generator is deterministic", false);
    }
  }
  const size_t csv_bytes = first_text.size();
  first_text.clear();
  first_text.shrink_to_fit();

  PassLedger ledger(ctx, kMinPasses);
  std::vector<double> pipeline_s, fit_s;
  std::vector<double> sweeps, candidates, pruned;
  BestRestart best;
  while (ledger.More()) {
    PassResult pass;
    uint32_t root = 0;
    const uint64_t init_seed = ledger.NextInitSeed();
    const bool quality_pass = ledger.QualityPass();
    Trace* trace = ledger.NextTrace();
    const Status st =
        RunPass(input, output, shape, init_seed, trace, &root, &pass);
    report->Count("pipeline_passes", 1, st.ok() ? 0 : 1);
    report->Count("csv_writes", 1, st.ok() ? 0 : 1);
    FAIRKM_RETURN_NOT_OK(st);
    std::printf("pass %d: fit_s %.6f, %d sweeps, objective %.9g, %.4f of "
                "candidates pruned\n",
                ledger.passes(), pass.fit_s, pass.sweeps, pass.objective,
                pass.candidates > 0
                    ? static_cast<double>(pass.pruned) / pass.candidates
                    : 0.0);
    ledger.EndPass(pass.pipeline_s, root);
    pipeline_s.push_back(pass.pipeline_s);
    fit_s.push_back(pass.fit_s);
    sweeps.push_back(pass.sweeps);
    candidates.push_back(static_cast<double>(pass.candidates));
    pruned.push_back(static_cast<double>(pass.pruned));
    if (quality_pass) {
      best.Offer(pass.objective, pass.sse, pass.fairness_aw, pass.silhouette);
    }
    if (ledger.passes() == 1) {
      CheckOutputCsv(output, shape.rows, report);
      const double rel = std::fabs(pass.kmeans_term - pass.sse) /
                         std::max(std::fabs(pass.sse), 1e-300);
      char detail[96];
      std::snprintf(detail, sizeof(detail), "relative gap %.3g", rel);
      report->Check("csv-report: kmeans_term equals ClusteringObjective",
                    rel <= 1e-9, detail);
    }
  }

  const size_t n = pipeline_s.size();
  report->Add("setup_s", "s", Median(setup_s), setup_s.size());
  report->Add("pipeline_s", "s", Median(pipeline_s), n);
  report->Add("fit_s", "s", Median(fit_s), n);
  report->Add("peak_rss_mib", "MiB",
              static_cast<double>(fairkm::PeakRssBytes()) / (1 << 20), 1);
  // Quality of the best of the first kMinPasses restarts: deterministic
  // per seed.
  const size_t restarts = static_cast<size_t>(best.restarts);
  report->Add("sse", "sum_sq", best.sse, restarts);
  report->Add("fairness_aw", "dist", best.fairness_aw, restarts);
  report->Add("silhouette", "score", best.silhouette, restarts);

  if (ctx.trace) {
    const std::vector<Span> spans = ledger.TracedSpans();
    const int traced = ledger.traced_passes();
    ledger.ReportLayers(report,
                        {"bench.glue", "common.csv_read", "common.csv_write",
                         "data.from_csv", "data.sensitive_view",
                         "data.to_matrix", "data.scale", "core.create",
                         "core.init", "core.result", "metrics.objective",
                         "metrics.silhouette", "metrics.fairness"});
    const double read = SelfPerPass(spans, "common.csv_read", traced);
    report->Add("common.csv_read_mb_per_s", "MB/s",
                read > 0 ? static_cast<double>(csv_bytes) / 1e6 / read : 0.0,
                static_cast<size_t>(traced));
    AddSweepLedger(report, ledger, sweeps, candidates, pruned);
  }
  return Status::OK();
}

}  // namespace e2ebench
