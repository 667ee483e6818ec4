// Scaling and micro benchmarks (google-benchmark) backing the paper's §4.3.1
// complexity discussion:
//   * FairKM wall time vs dataset size (the incremental optimizer is
//     O(n k (d + sum_S m_S)) per sweep, not the naive quadratic form),
//   * FairKM wall time vs feature dimensionality d on synthetic tf-idf-like
//     data (the ROADMAP's d-scaling axis — where the GEMV kernels and the
//     bound-gated pruning pay most),
//   * bound-gated pruning vs the exhaustive sweep (bit-identical
//     trajectories; the pruned_fraction counter records how many candidate
//     evaluations the gate rejected),
//   * fast incremental deltas vs naive full-objective recomputation,
//   * FairKM vs K-Means vs ZGYA (hard and soft) at a fixed size,
//   * single move-delta evaluation cost,
//   * the silhouette score on the scalar vs dispatched distance kernel,
//   * CSV ingest (ReadCsvFile + Dataset::FromCsv) vs the char-by-char
//     reference parser in tests/testlib,
//   * online admit/retire cost vs live row count (flat by design).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "cluster/kmeans.h"
#include "cluster/zgya.h"
#include "common/csv.h"
#include "common/rng.h"
#include "core/fairkm.h"
#include "core/fairkm_naive.h"
#include "core/fairkm_state.h"
#include "common/timer.h"
#include "core/kernels/kernels.h"
#include "core/sharded_sweep.h"
#include "core/solver.h"
#include "data/dataset.h"
#include "data/point_store.h"
#include "data/preprocess.h"
#include "metrics/quality.h"
#include "online/online_fairkm.h"
#include "serve/assign_batch.h"
#include "serve/model_snapshot.h"
#include "testlib/csv_oracle.h"

namespace {

using namespace fairkm;
using bench::RunSession;

const exp::ExperimentData& AdultSlice(size_t rows) {
  static std::map<size_t, std::unique_ptr<exp::ExperimentData>> cache;
  auto& slot = cache[rows];
  if (!slot) {
    exp::AdultExperimentOptions options;
    options.subsample = rows;
    slot = std::make_unique<exp::ExperimentData>(
        exp::LoadAdultExperiment(options).ValueOrDie());
  }
  return *slot;
}

// Synthetic tf-idf-like world for the d-scaling axis: sparse non-negative
// skewed features with latent topic structure (each topic loads on its own
// subset of dimensions, plus background noise), and three categorical
// sensitive attributes with skewed marginals. Pure function of (n, d).
struct SyntheticWorldData {
  data::Matrix features;
  data::SensitiveView sensitive;
};

const SyntheticWorldData& SyntheticWorld(size_t n, size_t d) {
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<SyntheticWorldData>>
      cache;
  auto& slot = cache[{n, d}];
  if (slot) return *slot;
  slot = std::make_unique<SyntheticWorldData>();
  Rng rng(0xD5CA11 + n * 31 + d);
  const size_t topics = 8;
  slot->features = data::Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    const size_t topic = rng.UniformInt(static_cast<uint64_t>(topics));
    double* row = slot->features.Row(i);
    for (size_t j = 0; j < d; ++j) {
      if (j % topics == topic) {
        row[j] = rng.UniformDouble(0.5, 2.0);  // On-topic term weight.
      } else if (rng.Bernoulli(0.1)) {
        row[j] = rng.UniformDouble(0.0, 0.3);  // Background term.
      }
    }
  }
  const int cards[3] = {2, 4, 8};
  for (int a = 0; a < 3; ++a) {
    data::CategoricalSensitive attr;
    attr.name = "attr" + std::to_string(a);
    attr.cardinality = cards[a];
    attr.codes.resize(n);
    std::vector<int64_t> counts(static_cast<size_t>(cards[a]), 0);
    for (size_t i = 0; i < n; ++i) {
      // Skewed marginal: value 0 as likely as all other values combined.
      const bool head = rng.Bernoulli(0.5);
      const int32_t v =
          head ? 0
               : static_cast<int32_t>(
                     1 + rng.UniformInt(static_cast<uint64_t>(cards[a] - 1)));
      attr.codes[i] = v;
      ++counts[static_cast<size_t>(v)];
    }
    attr.dataset_fractions.resize(static_cast<size_t>(cards[a]));
    for (int s = 0; s < cards[a]; ++s) {
      attr.dataset_fractions[static_cast<size_t>(s)] =
          static_cast<double>(counts[static_cast<size_t>(s)]) /
          static_cast<double>(n);
    }
    slot->sensitive.categorical.push_back(std::move(attr));
  }
  return *slot;
}

// The share of all candidate evaluations the O(1) stage-1 pruning gate
// rejected (the rest of the pruned fraction went through stage 2).
double PrunedStage1Fraction(const core::FairKMResult& r) {
  return r.total_candidates == 0
             ? 0.0
             : static_cast<double>(r.pruned_stage1_candidates) /
                   static_cast<double>(r.total_candidates);
}

// One full FairKM run over a synthetic world; shared body of the d-scaling
// axis and the pruned-vs-exact gate pair. Reports the pruned-candidate
// fraction (and the sweep share of wall time) as user counters.
void FairKMSweepBody(benchmark::State& state, size_t n, size_t d, bool prune) {
  const auto& world = SyntheticWorld(n, d);
  core::FairKMOptions options;
  options.k = 8;
  options.lambda = core::SuggestLambda(n, options.k);
  // The paper's protocol runs 30 sweeps without a convergence cut-off
  // (§5.4); that is also where pruning pays — later sweeps are nearly all
  // gated once the assignment settles.
  options.max_iterations = 30;
  options.enable_pruning = prune;
  double pruned_fraction = 0.0, stage1_fraction = 0.0, sweep_seconds = 0.0;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(world.features, world.sensitive, options, &rng);
    const core::FairKMResult& r = result.ValueOrDie();
    pruned_fraction = r.PrunedFraction();
    stage1_fraction = PrunedStage1Fraction(r);
    sweep_seconds = r.sweep_seconds;
    benchmark::DoNotOptimize(result.ok());
  }
  state.counters["pruned_fraction"] = pruned_fraction;
  state.counters["pruned_stage1_fraction"] = stage1_fraction;
  state.counters["sweep_seconds"] = sweep_seconds;
}

// The ROADMAP d-scaling axis: same row count, growing feature width. The
// default (pruned) path; recorded per-d in BENCH_scaling.json.
void BM_FairKM_Sweep(benchmark::State& state) {
  FairKMSweepBody(state, 8192, static_cast<size_t>(state.range(0)),
                  /*prune=*/true);
}
BENCHMARK(BM_FairKM_Sweep)->Arg(8)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The pruning gate pair (d = 64, n = 50k): tools/bench_json.sh requires
// Exact/Pruned >= MIN_PRUNE_SPEEDUP. Trajectories are bit-identical; only
// the number of candidate evaluations differs.
void BM_FairKM_Sweep_d64_Pruned(benchmark::State& state) {
  FairKMSweepBody(state, 50000, 64, /*prune=*/true);
}
BENCHMARK(BM_FairKM_Sweep_d64_Pruned)->Unit(benchmark::kMillisecond);

void BM_FairKM_Sweep_d64_Exact(benchmark::State& state) {
  FairKMSweepBody(state, 50000, 64, /*prune=*/false);
}
BENCHMARK(BM_FairKM_Sweep_d64_Exact)->Unit(benchmark::kMillisecond);

// Multi-seed session pair: the paper's §5.5.1 protocol runs many seeds per
// configuration. _Cold constructs a fresh FairKMSolver per seed — the
// pre-session-API behaviour, rebuilding and reallocating the aligned point
// store, norm caches, fairness/bound tables, pruner and batch scratch every
// time. _Reused creates ONE solver and re-Inits it per seed (allocation-free
// after the first). Trajectories are bit-identical
// (fairkm_solver_test.SolverReuseAcrossSeedsMatchesColdSolvers); only the
// per-seed setup work differs, which is what tools/bench_json.sh gates on
// (Cold/Reused >= MIN_REUSE_SPEEDUP). Few sweeps per run keep the bench in
// the regime where per-seed setup is a visible fraction of the work — a
// hyper-parameter search or serving-style re-fit, not a 30-sweep paper run.
constexpr size_t kMultiSeedN = 8192;
constexpr size_t kMultiSeedD = 64;
constexpr uint64_t kMultiSeedSeeds = 6;

core::FairKMOptions MultiSeedOptions() {
  core::FairKMOptions options;
  options.k = 8;
  options.lambda = core::SuggestLambda(kMultiSeedN, options.k);
  options.max_iterations = 3;
  return options;
}

void BM_FairKM_MultiSeed_Cold(benchmark::State& state) {
  const auto& world = SyntheticWorld(kMultiSeedN, kMultiSeedD);
  const core::FairKMOptions options = MultiSeedOptions();
  for (auto _ : state) {
    for (uint64_t seed = 1; seed <= kMultiSeedSeeds; ++seed) {
      auto solver =
          core::FairKMSolver::Create(&world.features, &world.sensitive, options)
              .ValueOrDie();
      solver.Init(seed).Abort();
      solver.Run().ValueOrDie();
      benchmark::DoNotOptimize(solver.assignment().data());
    }
  }
}
BENCHMARK(BM_FairKM_MultiSeed_Cold)->Unit(benchmark::kMillisecond);

void BM_FairKM_MultiSeed_Reused(benchmark::State& state) {
  const auto& world = SyntheticWorld(kMultiSeedN, kMultiSeedD);
  const core::FairKMOptions options = MultiSeedOptions();
  for (auto _ : state) {
    auto solver =
        core::FairKMSolver::Create(&world.features, &world.sensitive, options)
            .ValueOrDie();
    for (uint64_t seed = 1; seed <= kMultiSeedSeeds; ++seed) {
      solver.Init(seed).Abort();
      solver.Run().ValueOrDie();
      benchmark::DoNotOptimize(solver.assignment().data());
    }
  }
}
BENCHMARK(BM_FairKM_MultiSeed_Reused)->Unit(benchmark::kMillisecond);

// Serving-path pair (n = 8192, d = 64, k = 8): _Scalar scores out-of-sample
// points one at a time through FairKMSolver::Assign (naive per-candidate
// distance loop); _Batched scores the same points through serve::AssignBatch
// over a frozen ModelSnapshot — one GemvAligned pass per point against all k
// centroids with the expanded-form distance and cached ||mu||^2. Assignments
// are bit-identical (tests/serve_assign_test.cc); tools/bench_json.sh gates
// Scalar/Batched >= MIN_ASSIGN_SPEEDUP. Both report points_per_sec.
constexpr size_t kAssignN = 8192;
constexpr size_t kAssignD = 64;

struct AssignBenchModel {
  core::FairKMSolver solver;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
};

AssignBenchModel& AssignModel() {
  static AssignBenchModel* cached = [] {
    const auto& world = SyntheticWorld(kAssignN, kAssignD);
    core::FairKMOptions options;
    options.k = 8;
    options.lambda = core::SuggestLambda(kAssignN, options.k);
    options.max_iterations = 3;
    auto* model = new AssignBenchModel{
        core::FairKMSolver::Create(&world.features, &world.sensitive, options)
            .ValueOrDie(),
        nullptr};
    model->solver.Init(uint64_t{1}).Abort();
    model->solver.Run().ValueOrDie();
    model->snapshot = serve::MakeModelSnapshot(model->solver).ValueOrDie();
    return model;
  }();
  return *cached;
}

void BM_Assign_Scalar(benchmark::State& state) {
  AssignBenchModel& model = AssignModel();
  const auto& world = SyntheticWorld(kAssignN, kAssignD);
  size_t points = 0;
  Timer timer;
  for (auto _ : state) {
    auto assigned = model.solver.Assign(world.features).ValueOrDie();
    points += assigned.size();
    benchmark::DoNotOptimize(assigned.data());
  }
  const double seconds = timer.ElapsedSeconds();
  state.counters["points_per_sec"] =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}
BENCHMARK(BM_Assign_Scalar)->Unit(benchmark::kMillisecond);

void BM_Assign_Batched(benchmark::State& state) {
  AssignBenchModel& model = AssignModel();
  const auto& world = SyntheticWorld(kAssignN, kAssignD);
  serve::AssignScratch scratch;
  size_t points = 0;
  Timer timer;
  for (auto _ : state) {
    auto assigned =
        serve::AssignBatch(*model.snapshot, world.features, nullptr, &scratch)
            .ValueOrDie();
    points += assigned.size();
    benchmark::DoNotOptimize(assigned.data());
  }
  const double seconds = timer.ElapsedSeconds();
  state.counters["points_per_sec"] =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
}
BENCHMARK(BM_Assign_Batched)->Unit(benchmark::kMillisecond);

void BM_FairKM_DatasetSize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& data = AdultSlice(n);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = core::SuggestLambda(n, 5);
  options.max_iterations = 10;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_FairKM_DatasetSize)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_FairKM_Fast(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& data = AdultSlice(n);
  core::FairKMOptions options;
  options.k = 4;
  options.lambda = core::SuggestLambda(n, 4);
  options.max_iterations = 5;
  for (auto _ : state) {
    Rng rng(7);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_Fast)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_FairKM_NaiveReference(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& data = AdultSlice(n);
  core::FairKMOptions options;
  options.k = 4;
  options.lambda = core::SuggestLambda(n, 4);
  options.max_iterations = 5;
  for (auto _ : state) {
    Rng rng(7);
    auto result =
        core::RunFairKMNaive(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_NaiveReference)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_KMeansBlind(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  cluster::KMeansOptions options;
  options.k = 5;
  for (auto _ : state) {
    Rng rng(42);
    auto result = cluster::RunKMeans(data.features, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansBlind)->Unit(benchmark::kMillisecond);

// The Adult multi-attribute regime, default (pruned) path. The
// pruned_fraction counter is the tools/bench_json.sh gate anchor for "the
// bounds actually bite on the paper's own workload".
void BM_FairKM_AllAttributes(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = data.paper_lambda;
  double pruned_fraction = 0.0, stage1_fraction = 0.0;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    const core::FairKMResult& r = result.ValueOrDie();
    pruned_fraction = r.PrunedFraction();
    stage1_fraction = PrunedStage1Fraction(r);
    benchmark::DoNotOptimize(result.ok());
  }
  state.counters["pruned_fraction"] = pruned_fraction;
  state.counters["pruned_stage1_fraction"] = stage1_fraction;
}
BENCHMARK(BM_FairKM_AllAttributes)->Unit(benchmark::kMillisecond);

// Same config with pruning disabled — the exact-path anchor that keeps the
// Adult pair comparable PR over PR.
void BM_FairKM_AllAttributes_Exact(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = data.paper_lambda;
  options.enable_pruning = false;
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_AllAttributes_Exact)->Unit(benchmark::kMillisecond);

void BM_FairKM_MiniBatch(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  core::FairKMOptions options;
  options.k = 5;
  options.lambda = data.paper_lambda;
  options.minibatch_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(42);
    auto result = RunSession(data.features, data.sensitive, options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_FairKM_MiniBatch)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_ZgyaHard(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  cluster::ZgyaOptions options;
  options.k = 5;
  options.mode = cluster::ZgyaOptions::Mode::kHardMoves;
  for (auto _ : state) {
    Rng rng(42);
    auto result = cluster::RunZgya(data.features, data.sensitive.categorical[3],
                                   options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ZgyaHard)->Unit(benchmark::kMillisecond);

void BM_ZgyaSoft(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  cluster::ZgyaOptions options;
  options.k = 5;
  options.mode = cluster::ZgyaOptions::Mode::kSoftVariational;
  for (auto _ : state) {
    Rng rng(42);
    auto result = cluster::RunZgya(data.features, data.sensitive.categorical[3],
                                   options, &rng);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_ZgyaSoft)->Unit(benchmark::kMillisecond);

// Candidate-evaluation kernels, before/after: one full sweep's worth of
// evaluations (every point x every candidate cluster, k = 5, 2000-row Adult
// slice, all sensitive attributes — the paper's multi-attribute regime).
// _Reference uses the pre-optimization kernels (O(d) two-distance K-Means +
// O(sum_S m_S) fairness loops); _DeltaKernels uses the two batched passes
// the solver runs per point: DeltaKMeansAllClusters + DeltaFairnessAllClusters
// (the O(1)-per-attribute fairness closed form over k contiguous lanes).
// tools/bench_json.sh records this pair in BENCH_scaling.json as the perf
// trajectory anchor.
core::FairKMState MakeAdultState(const exp::ExperimentData& data, int k) {
  Rng rng(3);
  cluster::Assignment initial(data.features.rows());
  for (auto& a : initial) {
    a = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(k)));
  }
  return core::FairKMState::Create(&data.features, &data.sensitive, k, initial)
      .ValueOrDie();
}

void BM_SweepCandidates_Reference(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  const int k = 5;
  const core::FairKMState fairness_state = MakeAdultState(data, k);
  const size_t n = data.features.rows();
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        acc += fairness_state.ReferenceDeltaKMeans(i, c) +
               fairness_state.ReferenceDeltaFairness(i, c);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SweepCandidates_Reference)->Unit(benchmark::kMillisecond);

// Shared body for the delta-kernel sweep: `backend` pins the kernel backend
// for the run (nullptr = whatever runtime dispatch picked). The _Scalar
// variant vs the dispatch variant is the scalar-vs-SIMD anchor pair that
// tools/bench_json.sh gates on.
void SweepDeltaKernels(benchmark::State& state,
                       const core::kernels::Backend* backend) {
  core::kernels::SetActiveBackend(backend);
  const auto& data = AdultSlice(2000);
  const int k = 5;
  const core::FairKMState fairness_state = MakeAdultState(data, k);
  const size_t n = data.features.rows();
  std::vector<double> km(static_cast<size_t>(k));
  std::vector<double> fair(static_cast<size_t>(k));
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      fairness_state.DeltaKMeansAllClusters(i, km.data());
      fairness_state.DeltaFairnessAllClusters(i, fair.data());
      for (int c = 0; c < k; ++c) {
        acc += km[static_cast<size_t>(c)] + fair[static_cast<size_t>(c)];
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  core::kernels::SetActiveBackend(nullptr);
}

void BM_SweepCandidates_DeltaKernels(benchmark::State& state) {
  SweepDeltaKernels(state, nullptr);
}
BENCHMARK(BM_SweepCandidates_DeltaKernels)->Unit(benchmark::kMillisecond);

void BM_SweepCandidates_DeltaKernels_Scalar(benchmark::State& state) {
  SweepDeltaKernels(state, &core::kernels::ScalarBackend());
}
BENCHMARK(BM_SweepCandidates_DeltaKernels_Scalar)->Unit(benchmark::kMillisecond);

// Candidate scans over many attribute values: k = 8, d = 32, n = 4000
// uniform rows and four categorical attributes with 2/5/12/41 values and
// skewed marginals (the regime of many overlapping groups). _Reference
// prices every (point, cluster) pair with the pre-optimization kernels;
// _Batched runs the solver's two batched passes per point on the dispatched
// backend; _Batched_ScalarLanes pins only the FairDeltaLanes entry to the
// scalar backend, isolating what the vector lane kernel adds.
const SyntheticWorldData& ManyValuesWorld() {
  static const SyntheticWorldData world = [] {
    const size_t n = 4000, d = 32;
    SyntheticWorldData w;
    Rng rng(0x3A1E5);
    w.features = data::Matrix(n, d);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) w.features.At(i, j) = rng.UniformDouble();
    }
    for (const int m : {2, 5, 12, 41}) {
      data::CategoricalSensitive attr;
      attr.name = "attr" + std::to_string(m);
      attr.cardinality = m;
      attr.codes.resize(n);
      std::vector<int64_t> counts(static_cast<size_t>(m), 0);
      for (size_t i = 0; i < n; ++i) {
        // Skewed: a draw of min(u1, u2) favours the low codes.
        const uint64_t u1 = rng.UniformInt(static_cast<uint64_t>(m));
        const uint64_t u2 = rng.UniformInt(static_cast<uint64_t>(m));
        attr.codes[i] = static_cast<int32_t>(std::min(u1, u2));
        ++counts[static_cast<size_t>(attr.codes[i])];
      }
      for (const int64_t c : counts) {
        attr.dataset_fractions.push_back(static_cast<double>(c) /
                                         static_cast<double>(n));
      }
      w.sensitive.categorical.push_back(std::move(attr));
    }
    return w;
  }();
  return world;
}

core::FairKMState MakeManyValuesState() {
  const SyntheticWorldData& world = ManyValuesWorld();
  Rng rng(5);
  cluster::Assignment initial(world.features.rows());
  for (auto& a : initial) a = static_cast<int32_t>(rng.UniformInt(uint64_t{8}));
  return core::FairKMState::Create(&world.features, &world.sensitive, 8,
                                   initial)
      .ValueOrDie();
}

void BM_SweepCandidates_ManyValues_Reference(benchmark::State& state) {
  const core::FairKMState fairness_state = MakeManyValuesState();
  const size_t n = fairness_state.num_rows();
  const int k = fairness_state.k();
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        acc += fairness_state.ReferenceDeltaKMeans(i, c) +
               fairness_state.ReferenceDeltaFairness(i, c);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SweepCandidates_ManyValues_Reference)
    ->Unit(benchmark::kMillisecond);

void ManyValuesBatched(benchmark::State& state,
                       const core::kernels::Backend* backend) {
  core::kernels::SetActiveBackend(backend);
  const core::FairKMState fairness_state = MakeManyValuesState();
  const size_t n = fairness_state.num_rows();
  const size_t k = static_cast<size_t>(fairness_state.k());
  std::vector<double> km(k), fair(k);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      fairness_state.DeltaKMeansAllClusters(i, km.data());
      fairness_state.DeltaFairnessAllClusters(i, fair.data());
      for (size_t c = 0; c < k; ++c) acc += km[c] + fair[c];
    }
    benchmark::DoNotOptimize(acc);
  }
  core::kernels::SetActiveBackend(nullptr);
}

void BM_SweepCandidates_ManyValues_Batched(benchmark::State& state) {
  ManyValuesBatched(state, nullptr);
}
BENCHMARK(BM_SweepCandidates_ManyValues_Batched)->Unit(benchmark::kMillisecond);

void BM_SweepCandidates_ManyValues_Batched_ScalarLanes(
    benchmark::State& state) {
  static core::kernels::Backend mixed = [] {
    core::kernels::Backend b = core::kernels::DispatchBackend(false);
    b.FairDeltaLanes = core::kernels::ScalarBackend().FairDeltaLanes;
    return b;
  }();
  ManyValuesBatched(state, &mixed);
}
BENCHMARK(BM_SweepCandidates_ManyValues_Batched_ScalarLanes)
    ->Unit(benchmark::kMillisecond);

// Kernel-level micro benches: the blocked GEMV (x . S_c for all clusters in
// one pass) and the fairness-moment kernel, scalar backend vs whatever
// runtime dispatch selected. Arg = inner dimension (features d for GEMV,
// attribute cardinality m for CatMoments); k is fixed at 16 rows so the
// two-row blocking in the AVX2 GEMV is exercised.
void KernelGemvLoop(benchmark::State& state,
                    const core::kernels::Backend& backend) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t k = 16;
  Rng rng(11);
  std::vector<double> x(d), mat(k * d), out(k);
  for (auto& v : x) v = rng.UniformDouble(-1.0, 1.0);
  for (auto& v : mat) v = rng.UniformDouble(-1.0, 1.0);
  for (auto _ : state) {
    backend.Gemv(x.data(), mat.data(), k, d, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_KernelGemv_Scalar(benchmark::State& state) {
  KernelGemvLoop(state, core::kernels::ScalarBackend());
}
BENCHMARK(BM_KernelGemv_Scalar)->Arg(8)->Arg(64)->Arg(256);

void BM_KernelGemv_Dispatch(benchmark::State& state) {
  KernelGemvLoop(state, core::kernels::ActiveBackend());
}
BENCHMARK(BM_KernelGemv_Dispatch)->Arg(8)->Arg(64)->Arg(256);

void KernelCatMomentsLoop(benchmark::State& state,
                          const core::kernels::Backend& backend) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(13);
  std::vector<int64_t> counts(m);
  std::vector<double> fractions(m, 1.0 / static_cast<double>(m));
  for (auto& c : counts) {
    c = rng.UniformInt(int64_t{0}, int64_t{4000});
  }
  double u2 = 0.0, uq = 0.0;
  for (auto _ : state) {
    backend.CatMoments(counts.data(), fractions.data(), m, 4000.0, &u2, &uq);
    benchmark::DoNotOptimize(u2);
    benchmark::DoNotOptimize(uq);
  }
}

void BM_KernelCatMoments_Scalar(benchmark::State& state) {
  KernelCatMomentsLoop(state, core::kernels::ScalarBackend());
}
BENCHMARK(BM_KernelCatMoments_Scalar)->Arg(8)->Arg(42);

void BM_KernelCatMoments_Dispatch(benchmark::State& state) {
  KernelCatMomentsLoop(state, core::kernels::ActiveBackend());
}
BENCHMARK(BM_KernelCatMoments_Dispatch)->Arg(8)->Arg(42);

// Silhouette pair (n = 20000, d = 32, k = 8, 500 sampled probes):
// metrics::SilhouetteScore with the SilhouetteSums kernel pinned to the
// scalar backend vs whatever runtime dispatch selected. Both return the same
// score to the bit (tests/quality_test.cc); tools/bench_json.sh gates the
// cpu_time ratio at MIN_SILHOUETTE_SPEEDUP.
void SilhouetteLoop(benchmark::State& state,
                    const core::kernels::Backend& backend) {
  constexpr size_t kRows = 20000, kDims = 32;
  constexpr int kK = 8;
  Rng rng(19);
  data::Matrix points(kRows, kDims);
  for (double& v : points.data()) v = rng.UniformDouble(0.0, 1.0);
  cluster::Assignment labels(kRows);
  for (auto& c : labels) c = static_cast<int32_t>(rng.UniformInt(uint64_t{kK}));
  metrics::SilhouetteOptions options;
  options.max_exact_rows = 0;
  options.sample_size = 500;
  core::kernels::SetActiveBackend(&backend);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::SilhouetteScore(points, labels, kK, options));
  }
  core::kernels::SetActiveBackend(nullptr);
}

void BM_Silhouette_Scalar(benchmark::State& state) {
  SilhouetteLoop(state, core::kernels::ScalarBackend());
}
BENCHMARK(BM_Silhouette_Scalar)->Unit(benchmark::kMillisecond);

void BM_Silhouette_Dispatch(benchmark::State& state) {
  SilhouetteLoop(state, core::kernels::ActiveBackend());
}
BENCHMARK(BM_Silhouette_Dispatch)->Unit(benchmark::kMillisecond);

// Ingest pair (20000 rows of 32 numeric "%.3f" cells and 3 categorical
// cells, the csv-report shape): ReadCsvFile + Dataset::FromCsv vs the
// reference reader, parser and FromCsv of tests/testlib/csv_oracle on the
// same file. Every iteration runs both sides, in alternating order, so host
// drift lands on both; the speedup counter is the median of the
// per-iteration reference/library ratios.
std::string WriteIngestCsv() {
  constexpr size_t kRows = 20000, kNumeric = 32, kCategorical = 3;
  Rng rng(23);
  std::string text;
  for (size_t j = 0; j < kNumeric; ++j) text += "f" + std::to_string(j) + ",";
  text += "s0,s1,s2\n";
  char buf[32];
  for (size_t i = 0; i < kRows; ++i) {
    for (size_t j = 0; j < kNumeric; ++j) {
      const int len = std::snprintf(buf, sizeof(buf), "%.3f,",
                                    rng.UniformDouble(-40.0, 140.0));
      text.append(buf, static_cast<size_t>(len));
    }
    for (size_t a = 0; a < kCategorical; ++a) {
      text += "v" + std::to_string(rng.UniformInt(uint64_t{6 + 10 * a}));
      text += a + 1 < kCategorical ? ',' : '\n';
    }
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fairkm_bench_ingest_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_scaling: cannot write %s\n", path.c_str());
    std::abort();
  }
  return path;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

void BM_CsvIngest(benchmark::State& state) {
  const std::string path = WriteIngestCsv();
  auto library = [&] {
    auto dataset = data::Dataset::FromCsv(ReadCsvFile(path).ValueOrDie());
    benchmark::DoNotOptimize(dataset);
  };
  auto oracle = [&] {
    auto dataset =
        testutil::OracleFromCsv(testutil::OracleReadCsvFile(path).ValueOrDie());
    benchmark::DoNotOptimize(dataset);
  };
  std::vector<double> library_s, oracle_s, ratios;
  bool library_first = true;
  for (auto _ : state) {
    double lib = 0, ref = 0;
    for (int side = 0; side < 2; ++side) {
      const bool run_library = (side == 0) == library_first;
      Timer timer;
      run_library ? library() : oracle();
      (run_library ? lib : ref) = timer.ElapsedSeconds();
    }
    library_first = !library_first;
    library_s.push_back(lib);
    oracle_s.push_back(ref);
    ratios.push_back(ref / lib);
  }
  std::remove(path.c_str());
  state.counters["library_s"] = Median(library_s);
  state.counters["oracle_s"] = Median(oracle_s);
  state.counters["speedup"] = Median(ratios);
}
BENCHMARK(BM_CsvIngest)->Iterations(21)->Unit(benchmark::kMillisecond);

// Zero-work marker whose *name* records the dispatch-selected backend, so
// BENCH_scaling.json documents which backend produced the _Dispatch numbers
// (and whether FAIRKM_FORCE_SCALAR was set for the run).
void BackendMarkerLoop(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(&core::kernels::ActiveBackend());
  }
}
[[maybe_unused]] auto* const backend_marker = benchmark::RegisterBenchmark(
    (std::string("BM_ActiveKernelBackend_") + core::kernels::ActiveBackend().name)
        .c_str(),
    BackendMarkerLoop);

// Zero-work marker whose *name* records whether THIS binary was compiled
// with NDEBUG (i.e. an optimized Release configuration). The real
// google-benchmark's context.library_build_type describes the benchmark
// *library*, not our code, so tools/bench_json.sh gates on this marker
// instead: a debug record fails loudly.
[[maybe_unused]] auto* const build_config_marker = benchmark::RegisterBenchmark(
#ifdef NDEBUG
    "BM_BuildConfig_release",
#else
    "BM_BuildConfig_debug",
#endif
    BackendMarkerLoop);

// Out-of-core pair (n = 20000, d = 32, k = 8): _InProcess runs the serial
// mini-batch sweep over the in-memory point store; _Sharded runs the SAME
// options through core::ShardedSweep over an mmap-backed store file, with
// each shard evicted from the page cache as the sweep passes it.
// Trajectories are bit-identical (tests/sharded_sweep_test.cc); what this
// pair measures is the out-of-core overhead (refaults + madvise), which
// tools/bench_json.sh bounds: Sharded/InProcess <= MAX_SHARDED_OVERHEAD.
// The one-time store materialization is excluded from both sides.
constexpr size_t kShardedN = 20000;
constexpr size_t kShardedD = 32;

core::FairKMOptions ShardedBenchOptions() {
  core::FairKMOptions options;
  options.k = 8;
  options.lambda = core::SuggestLambda(kShardedN, options.k);
  options.max_iterations = 3;
  options.minibatch_size = 1024;
  return options;
}

void BM_FairKM_SnapshotSweep_InProcess(benchmark::State& state) {
  const auto& world = SyntheticWorld(kShardedN, kShardedD);
  const core::FairKMOptions options = ShardedBenchOptions();
  for (auto _ : state) {
    auto solver =
        core::FairKMSolver::Create(&world.features, &world.sensitive, options)
            .ValueOrDie();
    solver.Init(uint64_t{42}).Abort();
    solver.Run().ValueOrDie();
    benchmark::DoNotOptimize(solver.assignment().data());
  }
}
BENCHMARK(BM_FairKM_SnapshotSweep_InProcess)->Unit(benchmark::kMillisecond);

void BM_FairKM_SnapshotSweep_Sharded(benchmark::State& state) {
  const auto& world = SyntheticWorld(kShardedN, kShardedD);
  const core::FairKMOptions options = ShardedBenchOptions();
  static const std::shared_ptr<const data::PointStore> store = [] {
    data::PointStoreSpec spec;
    spec.backend = data::PointStoreSpec::Backend::kMmap;
    spec.path = "/tmp/fairkm_bench_sharded.fkps";
    return data::PointStore::Create(SyntheticWorld(kShardedN, kShardedD).features,
                                    spec)
        .ValueOrDie();
  }();
  double evictions = 0.0;
  for (auto _ : state) {
    auto sweep =
        core::ShardedSweep::Create(store, &world.sensitive, options, 8)
            .ValueOrDie();
    sweep.Init(uint64_t{42}).Abort();
    sweep.Run().ValueOrDie();
    evictions = static_cast<double>(sweep.stats().evictions);
    benchmark::DoNotOptimize(sweep.solver().assignment().data());
  }
  state.counters["evictions"] = evictions;
}
BENCHMARK(BM_FairKM_SnapshotSweep_Sharded)->Unit(benchmark::kMillisecond);

// Online engine benches (src/online/): _Admit measures the steady-state cost
// of the live Eq. 1 insertion path — per admitted point the engine scores all
// k clusters (distance + fairness insertion delta), appends to the growable
// store and adopts the row into the state; per batch it refreshes the
// dataset distribution from its maintained counts, the moment tables, and
// the pruner's table sizes, none of which passes over the live rows. Each
// round's ids are retired outside the timed region so the engine holds a
// steady row count and iterations stay comparable. tools/bench_json.sh gates
// on the points_per_sec counter (MIN_ADMIT_POINTS_PER_SEC). _AdmitScaling
// times admit AND retire over a steady window at 2k to 256k live rows (gate
// 10: the per-batch cost must not grow with n). _DriftResweep measures the
// full bounded drift-response cycle the supervisor triggers on a
// regression: canonical Flush rebuild + one budgeted Algorithm-1 sweep +
// snapshot republish.
constexpr size_t kOnlineN = 4096;
constexpr size_t kOnlineD = 64;
constexpr size_t kOnlineBatch = 64;

online::OnlineOptions OnlineBenchOptions() {
  online::OnlineOptions options;
  options.solver.k = 8;
  options.solver.lambda = core::SuggestLambda(kOnlineN, options.solver.k);
  options.solver.max_iterations = 3;
  // Keep the drift monitor quiet: each bench exercises exactly one path
  // (the admit fast path, or the explicitly forced re-sweep).
  options.drift.regression_tolerance = 1e12;
  options.drift.resweep_max_sweeps = 1;
  return options;
}

// Admit-side sensitive view mirroring the training structure (same attrs and
// cardinalities, fresh random codes for the admitted rows).
data::SensitiveView OnlineAdmitView(const data::SensitiveView& training,
                                    size_t rows, Rng* rng) {
  data::SensitiveView view;
  for (const auto& attr : training.categorical) {
    data::CategoricalSensitive a;
    a.name = attr.name;
    a.cardinality = attr.cardinality;
    a.weight = attr.weight;
    a.codes.resize(rows);
    for (auto& code : a.codes) {
      code = static_cast<int32_t>(
          rng->UniformInt(static_cast<uint64_t>(attr.cardinality)));
    }
    a.dataset_fractions.assign(static_cast<size_t>(attr.cardinality), 0.0);
    view.categorical.push_back(std::move(a));
  }
  return view;
}

data::Matrix OnlineAdmitBatch(size_t rows, Rng* rng, size_t d = kOnlineD) {
  data::Matrix batch(rows, d);
  for (size_t i = 0; i < rows; ++i) {
    double* row = batch.Row(i);
    for (size_t j = 0; j < d; ++j) {
      row[j] = rng->Bernoulli(0.2) ? rng->UniformDouble(0.0, 2.0) : 0.0;
    }
  }
  return batch;
}

online::OnlineFairKM& OnlineBenchEngine() {
  static online::OnlineFairKM* engine = [] {
    const auto& world = SyntheticWorld(kOnlineN, kOnlineD);
    return online::OnlineFairKM::Create(world.features, world.sensitive,
                                        OnlineBenchOptions(), /*seed=*/1)
        .ValueOrDie()
        .release();
  }();
  return *engine;
}

void BM_Online_Admit(benchmark::State& state) {
  online::OnlineFairKM& engine = OnlineBenchEngine();
  const auto& world = SyntheticWorld(kOnlineN, kOnlineD);
  Rng rng(0x0A1D);
  const data::Matrix batch = OnlineAdmitBatch(kOnlineBatch, &rng);
  const data::SensitiveView view =
      OnlineAdmitView(world.sensitive, kOnlineBatch, &rng);
  size_t points = 0;
  double admit_seconds = 0.0;
  for (auto _ : state) {
    Timer timer;
    auto ids = engine.Admit(batch, &view);
    admit_seconds += timer.ElapsedSeconds();
    const std::vector<uint64_t>& admitted = ids.ValueOrDie();
    points += admitted.size();
    state.PauseTiming();
    engine.Retire(admitted).Abort();
    state.ResumeTiming();
  }
  state.counters["points_per_sec"] =
      admit_seconds > 0.0 ? static_cast<double>(points) / admit_seconds : 0.0;
}
BENCHMARK(BM_Online_Admit)->Unit(benchmark::kMillisecond);

// One engine of the scaling bench, alive across the benchmark library's
// repeated calls for the same row count, with its window of live ids in
// admission order. d = 16 keeps the 256k-row engine near 100 MB.
constexpr size_t kOnlineScalingD = 16;

struct OnlineWindow {
  size_t rows = 0;
  std::unique_ptr<online::OnlineFairKM> engine;
  std::deque<uint64_t> ids;
};

OnlineWindow& OnlineWindowOf(size_t rows) {
  static OnlineWindow window;
  if (window.rows != rows) {
    window.engine.reset();  // One engine at a time.
    const auto& world = SyntheticWorld(rows, kOnlineScalingD);
    window.engine = online::OnlineFairKM::Create(world.features,
                                                 world.sensitive,
                                                 OnlineBenchOptions(),
                                                 /*seed=*/1)
                        .ValueOrDie();
    const std::vector<uint64_t> live = window.engine->LiveIds();
    window.ids.assign(live.begin(), live.end());
    window.rows = rows;
  }
  return window;
}

void BM_Online_AdmitScaling(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  OnlineWindow& window = OnlineWindowOf(rows);
  const auto& world = SyntheticWorld(rows, kOnlineScalingD);
  Rng rng(0x0A3D);
  const data::Matrix batch =
      OnlineAdmitBatch(kOnlineBatch, &rng, kOnlineScalingD);
  const data::SensitiveView view =
      OnlineAdmitView(world.sensitive, kOnlineBatch, &rng);
  std::vector<uint64_t> oldest(kOnlineBatch);
  size_t points = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    std::copy(window.ids.begin(), window.ids.begin() + kOnlineBatch,
              oldest.begin());
    Timer timer;
    auto ids = window.engine->Admit(batch, &view);
    window.engine->Retire(oldest).Abort();
    seconds += timer.ElapsedSeconds();
    const std::vector<uint64_t>& admitted = ids.ValueOrDie();
    window.ids.erase(window.ids.begin(), window.ids.begin() + kOnlineBatch);
    window.ids.insert(window.ids.end(), admitted.begin(), admitted.end());
    points += admitted.size();
  }
  state.counters["points_per_sec"] =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
  state.counters["live_rows"] =
      static_cast<double>(window.engine->Stats().live_rows);
}
BENCHMARK(BM_Online_AdmitScaling)
    ->Arg(2048)
    ->Arg(32768)
    ->Arg(262144)
    ->Unit(benchmark::kMicrosecond);

void BM_Online_DriftResweep(benchmark::State& state) {
  online::OnlineFairKM& engine = OnlineBenchEngine();
  const auto& world = SyntheticWorld(kOnlineN, kOnlineD);
  Rng rng(0x0A2D);
  for (auto _ : state) {
    state.PauseTiming();
    // Dirty the incremental state so the re-sweep's canonical rebuild and
    // budgeted sweep have fresh membership to chew on.
    const data::Matrix batch = OnlineAdmitBatch(8, &rng);
    const data::SensitiveView view = OnlineAdmitView(world.sensitive, 8, &rng);
    auto ids = engine.Admit(batch, &view);
    const std::vector<uint64_t> admitted = ids.ValueOrDie();
    state.ResumeTiming();

    engine.TriggerResweep().Abort();

    state.PauseTiming();
    engine.Retire(admitted).Abort();
    state.ResumeTiming();
  }
  state.counters["resweeps"] =
      static_cast<double>(engine.Stats().resweeps);
}
BENCHMARK(BM_Online_DriftResweep)->Unit(benchmark::kMillisecond);

void BM_MoveDeltaEvaluation(benchmark::State& state) {
  const auto& data = AdultSlice(2000);
  const int k = 5;
  Rng rng(3);
  cluster::Assignment initial(data.features.rows());
  for (auto& a : initial) a = static_cast<int32_t>(rng.UniformInt(uint64_t{5}));
  auto fairness_state =
      core::FairKMState::Create(&data.features, &data.sensitive, k, initial)
          .ValueOrDie();
  std::vector<double> fair(static_cast<size_t>(k));
  size_t i = 0;
  for (auto _ : state) {
    // One candidate's K-Means delta plus its lane of the batched fairness
    // pass (which prices all k candidates of the point).
    const size_t row = i % data.features.rows();
    const int to = static_cast<int>(i % k);
    fairness_state.DeltaFairnessAllClusters(row, fair.data());
    double delta = fairness_state.DeltaKMeans(row, to) +
                   fair[static_cast<size_t>(to)];
    benchmark::DoNotOptimize(delta);
    ++i;
  }
}
BENCHMARK(BM_MoveDeltaEvaluation);

}  // namespace

BENCHMARK_MAIN();
