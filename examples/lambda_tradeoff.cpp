// Lambda trade-off explorer: sweeps FairKM's single hyper-parameter and
// prints the coherence/fairness frontier, the practical tool for choosing a
// lambda on a new dataset (paper §5.4 and §5.7).
//
//   $ ./examples/lambda_tradeoff --dataset kinematics --points 8

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/args.h"
#include "core/solver.h"
#include "exp/datasets.h"
#include "exp/table.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"

using namespace fairkm;

int main(int argc, char** argv) {
  ArgParser args;
  args.AddFlag("dataset", "kinematics", "kinematics | adult");
  args.AddFlag("rows", "3000", "adult rows when --dataset adult (0 = full)");
  args.AddFlag("k", "5", "number of clusters");
  args.AddFlag("points", "8", "number of lambda points in the sweep");
  args.AddFlag("seed", "11", "random seed");
  if (Status st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 args.HelpString("lambda_tradeoff").c_str());
    return 1;
  }
  const int k = static_cast<int>(args.GetInt("k"));
  const int points = static_cast<int>(args.GetInt("points"));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed"));

  exp::ExperimentData data;
  if (args.GetString("dataset") == "adult") {
    exp::AdultExperimentOptions options;
    options.subsample = static_cast<size_t>(args.GetInt("rows"));
    data = exp::LoadAdultExperiment(options).ValueOrDie();
  } else {
    data = exp::LoadKinematicsExperiment().ValueOrDie();
  }

  const double center = core::SuggestLambda(data.features.rows(), k);
  std::printf("Dataset %s (n = %zu), k = %d; heuristic lambda (n/k)^2 = %.0f\n\n",
              data.name.c_str(), data.features.rows(), k, center);

  // One FairKMSolver serves the whole sweep: the aligned point store, norm
  // caches and every buffer are built once and reused for each
  // lambda point (SetLambda + re-Init is the session API's warm path) —
  // per-point cost is pure optimization, not setup.
  core::FairKMOptions options;
  options.k = k;
  auto solver =
      core::FairKMSolver::Create(&data.features, &data.sensitive, options)
          .ValueOrDie();

  exp::TablePrinter table(
      {"lambda", "CO (down)", "SH (up)", "AE (down)", "MW (down)", "iters"});
  for (int p = 0; p < points; ++p) {
    // Log-spaced sweep from center/16 to center*8.
    const double lambda =
        center / 16.0 *
        std::pow(128.0, static_cast<double>(p) / std::max(1, points - 1));
    solver.SetLambda(lambda).Abort();
    solver.Init(seed).Abort();
    solver.Run().ValueOrDie();
    auto r = solver.CurrentResult().ValueOrDie();
    auto fairness = metrics::EvaluateFairness(data.sensitive, r.assignment, k);
    table.AddRow({exp::Cell(lambda, 0), exp::Cell(r.kmeans_objective, 2),
                  exp::Cell(metrics::SilhouetteScore(data.features, r.assignment, k)),
                  exp::Cell(fairness.mean.ae), exp::Cell(fairness.mean.mw),
                  std::to_string(r.iterations)});
  }
  table.Print();
  std::printf(
      "\nPick the smallest lambda whose fairness deviations meet your target;\n"
      "behaviour varies smoothly around the (n/k)^2 heuristic (paper §5.4).\n");
  return 0;
}
