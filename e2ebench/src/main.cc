// fairkm_e2ebench — end-to-end FairKM benchmark program.
//
//   fairkm_e2ebench --workload csv-report-100k --seed 1 --seconds 10
//                   --trace 0 --work-dir DIR
//
// Runs one workload, checks its outputs, and prints every metric with its
// unit and sample count, followed by one "E2EBENCH_RESULT {json}" line.
// Exit codes: 0 on a correct run, 1 when an output check failed, 2 on a
// usage error, an unoptimised build or a library error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/kernels/kernels.h"
#include "report.h"
#include "workloads.h"

using namespace e2ebench;

namespace {

// Per-layer metrics of layers a workload does not use are reported as 0
// with 0 samples, so every run carries the same metric names.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"bench.glue_s", "s"},
    {"common.csv_read_s", "s"},
    {"common.csv_read_mb_per_s", "MB/s"},
    {"common.csv_write_s", "s"},
    {"data.from_csv_s", "s"},
    {"data.sensitive_view_s", "s"},
    {"data.to_matrix_s", "s"},
    {"data.scale_s", "s"},
    {"core.create_s", "s"},
    {"core.init_s", "s"},
    {"core.sweep_p50_s", "s"},
    {"core.sweep_total_s", "s"},
    {"core.sweeps", "count"},
    {"core.candidates", "count"},
    {"core.pruned_candidates", "count"},
    {"core.pruned_fraction", "share"},
    {"core.result_s", "s"},
    {"core.checkpoint_save_s", "s"},
    {"core.checkpoint_bytes", "bytes"},
    {"serve.snapshot_make_s", "s"},
    {"serve.snapshot_write_s", "s"},
    {"serve.snapshot_read_s", "s"},
    {"serve.assign_pps", "1/s"},
    {"serve.assign_p50_us", "us"},
    {"serve.assign_p99_us", "us"},
    {"serve.busy_s", "s"},
    {"serve.busy_share", "share"},
    {"serve.wait_us", "us"},
    {"serve.batches", "count"},
    {"serve.avg_batch_points", "count"},
    {"serve.peak_in_flight", "count"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"online.create_s", "s"},
    {"online.admit_p50_ms", "ms"},
    {"online.admit_p99_ms", "ms"},
    {"online.retire_p50_ms", "ms"},
    {"online.retire_p99_ms", "ms"},
    {"online.stream_pps", "1/s"},
    {"online.resweep_s", "s"},
    {"online.resweeps", "count"},
    {"online.generations", "count"},
    {"online.live_rows", "count"},
    {"online.flush_s", "s"},
    {"metrics.objective_s", "s"},
    {"metrics.silhouette_s", "s"},
    {"metrics.fairness_s", "s"},
};

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "fairkm_e2ebench: %s\nusage: fairkm_e2ebench --workload "
               "{csv-report-100k|adult-train-serve|online-window} --seed N "
               "--seconds S --trace {0|1} --work-dir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (workload.empty() || work_dir.empty() || seed < 0 || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return Usage("missing or invalid flag");
  }

  HostFacts host;
  host.nproc = static_cast<unsigned>(UsableCpuList().size());
  host.cpu_model = CpuModel();
  host.compiler = E2EBENCH_COMPILER;
  host.build_type = E2EBENCH_BUILD_TYPE;
  host.kernel_backend = fairkm::core::kernels::ActiveBackend().name;
  host.optimized = OptimizedBuild();
  host.threads_comparable = host.nproc >= 4;
  if (!host.optimized) {
    std::fprintf(stderr,
                 "fairkm_e2ebench: refusing to record from a build without "
                 "optimisation and NDEBUG (build type %s)\n",
                 host.build_type.c_str());
    return 2;
  }

  Report report;
  WorkloadContext ctx;
  ctx.seed = static_cast<uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.work_dir = work_dir;
  ctx.report = &report;

  fairkm::Status status;
  if (workload == "csv-report-100k") {
    status = RunCsvReport(ctx);
  } else if (workload == "adult-train-serve") {
    status = RunTrainServe(ctx);
  } else if (workload == "online-window") {
    status = RunOnlineWindow(ctx);
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "fairkm_e2ebench: %s failed: %s\n", workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  if (ctx.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      if (!report.Has(m.name)) report.Add(m.name, m.unit, 0.0, 0);
    }
  }
  report.Print(workload, ctx.seed, ctx.trace, host);
  return report.correct() ? 0 : 1;
}
