// Ablation benches for the design choices DESIGN.md calls out:
//   A. cluster weighting (Eq. 6): squared fraction vs |C|-proportional vs
//      unweighted, at matched fairness pressure;
//   B. domain-cardinality normalization (Eq. 4) on/off on Adult;
//   C. mini-batch prototype updates (§6.1): speed vs quality/fairness;
//   D. ZGYA optimizer gap: published soft variational vs exact hard moves;
//   E. per-attribute fairness weights (Eq. 23) steering the trade-off.

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/fairkm.h"
#include "exp/table.h"
#include "metrics/fairness.h"
#include "metrics/quality.h"

namespace {

using namespace fairkm;
using bench::BenchEnv;
using bench::RunSession;

void AblateClusterWeighting(const exp::ExperimentData& data, const BenchEnv& env) {
  std::printf("\n[A] Cluster weighting (Eq. 6) — Kinematics, k=5\n");
  exp::TablePrinter table({"Weighting", "CO", "AE(mean)", "min |C|", "max |C|"});
  const int k = 5;
  struct Mode {
    const char* name;
    core::ClusterWeighting weighting;
    double lambda_scale;  // Matches the fairness pressure across scales.
  };
  const double n_over_k =
      static_cast<double>(data.features.rows()) / static_cast<double>(k);
  const Mode modes[] = {
      {"(|C|/n)^2 (paper)", core::ClusterWeighting::kSquaredFraction, 1.0},
      {"|C|/n", core::ClusterWeighting::kFractional, 1.0 / n_over_k},
      {"unweighted", core::ClusterWeighting::kUnweighted,
       1.0 / (n_over_k * n_over_k)},
  };
  for (const Mode& mode : modes) {
    RunningStats co, ae, min_size, max_size;
    for (size_t s = 0; s < env.seeds; ++s) {
      core::FairKMOptions options;
      options.k = k;
      options.lambda = data.paper_lambda * mode.lambda_scale;
      options.fairness.weighting = mode.weighting;
      Rng rng(1000 + s);
      auto r = RunSession(data.features, data.sensitive, options, &rng)
                   .ValueOrDie();
      co.Add(r.kmeans_objective);
      ae.Add(metrics::EvaluateFairness(data.sensitive, r.assignment, k).mean.ae);
      min_size.Add(static_cast<double>(
          *std::min_element(r.sizes.begin(), r.sizes.end())));
      max_size.Add(static_cast<double>(
          *std::max_element(r.sizes.begin(), r.sizes.end())));
    }
    table.AddRow({mode.name, exp::Cell(co.mean(), 2), exp::Cell(ae.mean()),
                  exp::Cell(min_size.mean(), 1), exp::Cell(max_size.mean(), 1)});
  }
  table.Print();
  std::printf(
      "Expected: at matched pressure the paper's squared weighting spreads the\n"
      "fairness budget across clusters in proportion to their size and achieves\n"
      "far lower AE; the alternatives concentrate pressure on small clusters\n"
      "(scale 1/|C|^2 or 1/(n|C|)) and leave the large ones skewed.\n");
}

void AblateDomainNormalization(const exp::ExperimentData& data, const BenchEnv& env) {
  std::printf("\n[B] Domain-cardinality normalization (Eq. 4) — Adult, k=5\n");
  exp::TablePrinter table(
      {"Attribute (cardinality)", "AE norm ON", "AE norm OFF"});
  const int k = 5;
  // Removing the 1/|Values(S)| factor inflates every attribute's loss, which
  // would just act like a larger lambda; divide lambda by the mean
  // cardinality so total fairness pressure stays matched and only the
  // *relative* attribute emphasis changes.
  double mean_cardinality = 0.0;
  for (const auto& attr : data.sensitive.categorical) {
    mean_cardinality += attr.cardinality;
  }
  mean_cardinality /= static_cast<double>(data.sensitive.categorical.size());
  auto run = [&](bool normalize) {
    std::map<std::string, RunningStats> ae;
    for (size_t s = 0; s < env.seeds; ++s) {
      core::FairKMOptions options;
      options.k = k;
      options.lambda =
          normalize ? data.paper_lambda : data.paper_lambda / mean_cardinality;
      options.fairness.normalize_domain = normalize;
      Rng rng(1000 + s);
      auto r = RunSession(data.features, data.sensitive, options, &rng)
                   .ValueOrDie();
      auto summary = metrics::EvaluateFairness(data.sensitive, r.assignment, k);
      for (const auto& attr : summary.per_attribute) {
        ae[attr.attribute].Add(attr.ae);
      }
    }
    return ae;
  };
  auto on = run(true);
  auto off = run(false);
  for (size_t a = 0; a < data.sensitive.categorical.size(); ++a) {
    const auto& attr = data.sensitive.categorical[a];
    table.AddRow({attr.name + " (" + std::to_string(attr.cardinality) + ")",
                  exp::Cell(on[attr.name].mean()), exp::Cell(off[attr.name].mean())});
  }
  table.Print();
  std::printf("Expected: at matched total pressure, dropping Eq. 4 shifts the\n"
              "loss budget towards high-cardinality attributes (native_country)\n"
              "at the expense of low-cardinality ones (gender).\n");
}

void AblateMiniBatch(const exp::ExperimentData& data, const BenchEnv& env) {
  std::printf("\n[C] Mini-batch prototype updates (paper §6.1) — Adult, k=5\n");
  exp::TablePrinter table({"Batch size", "seconds/run", "CO", "AE(mean)"});
  const int k = 5;
  for (int batch : {0, 64, 256, 1024}) {
    RunningStats seconds, co, ae;
    for (size_t s = 0; s < env.seeds; ++s) {
      core::FairKMOptions options;
      options.k = k;
      options.lambda = data.paper_lambda;
      options.minibatch_size = batch;
      Rng rng(1000 + s);
      Timer timer;
      auto r = RunSession(data.features, data.sensitive, options, &rng)
                   .ValueOrDie();
      seconds.Add(timer.ElapsedSeconds());
      co.Add(r.kmeans_objective);
      ae.Add(metrics::EvaluateFairness(data.sensitive, r.assignment, k).mean.ae);
    }
    table.AddRow({batch == 0 ? "0 (immediate)" : std::to_string(batch),
                  exp::Cell(seconds.mean(), 4), exp::Cell(co.mean(), 2),
                  exp::Cell(ae.mean())});
  }
  table.Print();
  std::printf(
      "Observation: our prototype maintenance is already O(d) per move, so the\n"
      "paper's proposed mini-batching (§6.1) changes neither runtime nor results\n"
      "much here — its value lies with implementations that recompute centroids\n"
      "from scratch; quality/fairness are essentially batch-size-insensitive.\n");
}

void AblateZgyaOptimizer(const exp::ExperimentData& data, const BenchEnv& env) {
  std::printf("\n[D] ZGYA optimizer gap — %s, k=5 (lambda=%.3g)\n",
              data.name.c_str(), data.zgya_lambda);
  exp::TablePrinter table({"Attribute", "AE soft (published)", "AE hard (exact)",
                           "AE K-Means(N)"});
  exp::ExperimentRunner runner(&data, env.threads);
  exp::RunConfig blind;
  blind.method = exp::Method::kKMeansBlind;
  blind.fairkm.k = 5;
  auto blind_agg = runner.Run(blind, env.seeds, 1000).ValueOrDie();
  for (const auto& attr : data.sensitive_names) {
    exp::RunConfig soft;
    soft.method = exp::Method::kZgyaSingle;
    soft.fairkm.k = 5;
    soft.zgya_lambda = data.zgya_lambda;
    soft.zgya_soft_temperature = data.zgya_soft_temperature;
    soft.single_attribute = attr;
    auto soft_agg = runner.Run(soft, env.seeds, 1000).ValueOrDie();
    exp::RunConfig hard = soft;
    hard.method = exp::Method::kZgyaHard;
    auto hard_agg = runner.Run(hard, env.seeds, 1000).ValueOrDie();
    table.AddRow({attr, exp::Cell(soft_agg.FairnessOf(attr).ae.mean()),
                  exp::Cell(hard_agg.FairnessOf(attr).ae.mean()),
                  exp::Cell(blind_agg.FairnessOf(attr).ae.mean())});
  }
  table.Print();
  std::printf("Reproduction finding: much of FairKM's reported gap to ZGYA is\n"
              "the baseline's soft bound-update optimizer; re-optimizing ZGYA's\n"
              "own objective with exact hard moves closes a large part of it.\n");
}

void AblateAttributeWeights(const exp::ExperimentData& data, const BenchEnv& env) {
  std::printf("\n[E] Per-attribute fairness weights (Eq. 23) — Adult, k=5\n");
  exp::TablePrinter table({"Setting", "AE gender", "AE others (mean)"});
  const int k = 5;
  auto run = [&](double gender_weight) {
    data::SensitiveView view = data.sensitive;
    for (auto& attr : view.categorical) {
      if (attr.name == "gender") attr.weight = gender_weight;
    }
    RunningStats gender, others;
    for (size_t s = 0; s < env.seeds; ++s) {
      core::FairKMOptions options;
      options.k = k;
      options.lambda = data.paper_lambda;
      Rng rng(1000 + s);
      auto r =
          RunSession(data.features, view, options, &rng).ValueOrDie();
      auto summary = metrics::EvaluateFairness(data.sensitive, r.assignment, k);
      double other_sum = 0.0;
      size_t other_n = 0;
      for (const auto& attr : summary.per_attribute) {
        if (attr.attribute == "gender") {
          gender.Add(attr.ae);
        } else {
          other_sum += attr.ae;
          ++other_n;
        }
      }
      others.Add(other_sum / static_cast<double>(other_n));
    }
    table.AddRow({"w_gender = " + exp::Cell(gender_weight, 0),
                  exp::Cell(gender.mean()), exp::Cell(others.mean())});
  };
  run(1.0);
  run(10.0);
  table.Print();
  std::printf("Expected: up-weighting an attribute buys it extra fairness at a\n"
              "small cost to the rest (paper §4.4.2).\n");
}

}  // namespace

int main() {
  BenchEnv env = bench::LoadBenchEnv();
  // Ablations run on a subsample by default to stay quick.
  BenchEnv adult_env = env;
  if (adult_env.adult_rows == 0) adult_env.adult_rows = 4000;
  bench::PrintBanner("Ablations — FairKM design choices", adult_env);

  const auto& kinematics = bench::KinematicsData();
  const auto& adult = bench::AdultData(adult_env);

  AblateClusterWeighting(kinematics, env);
  AblateDomainNormalization(adult, adult_env);
  AblateMiniBatch(adult, adult_env);
  AblateZgyaOptimizer(kinematics, env);
  AblateZgyaOptimizer(adult, adult_env);
  AblateAttributeWeights(adult, adult_env);
  return 0;
}
