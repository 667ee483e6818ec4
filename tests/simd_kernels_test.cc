// Cross-checks every kernel backend against the scalar reference under
// randomized inputs: dims 1..33 (every AVX2 tail remainder), unaligned base
// pointers, adversarial magnitudes. Per-kernel contracts:
//   * Dot/Gemv/GemvAligned agree within 1e-9 (relative).
//   * CatMoments and CatDeltaBounds agree BIT-FOR-BIT — FairKMState's
//     fairness aggregates, the pruning tables, and through them the
//     optimizer trajectory, must not depend on which backend cpuid picked.
//   * SilhouetteSums agrees BIT-FOR-BIT over probe tiles of 1..8 rows and
//     row counts off the 4-row block, so the silhouette score is
//     backend-independent.

#include "core/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fairkm_state.h"
#include "data/matrix.h"
#include "data/sensitive.h"
#include "gtest/gtest.h"

namespace fairkm {
namespace core {
namespace kernels {
namespace {

// All compiled-in backends that the running CPU can execute. Scalar is
// always present; AVX2 joins when dispatch says the host supports it.
std::vector<const Backend*> AvailableBackends() {
  std::vector<const Backend*> backends = {&ScalarBackend()};
  if (const Backend* avx2 = Avx2Backend()) backends.push_back(avx2);
  return backends;
}

// Fills [out, out + n) with values spanning several orders of magnitude so
// accumulation-order bugs actually show up.
void FillRandom(Rng* rng, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, rng->UniformDouble(-3.0, 3.0));
    out[i] = rng->UniformDouble(-1.0, 1.0) * mag;
  }
}

TEST(KernelDispatchTest, ScalarBackendAlwaysAvailable) {
  EXPECT_STREQ(ScalarBackend().name, "scalar");
  ASSERT_NE(ScalarBackend().Dot, nullptr);
  ASSERT_NE(ScalarBackend().Gemv, nullptr);
  ASSERT_NE(ScalarBackend().CatMoments, nullptr);
  ASSERT_NE(ScalarBackend().SilhouetteSums, nullptr);
}

TEST(KernelDispatchTest, ForcedScalarDispatchPicksScalar) {
  EXPECT_STREQ(DispatchBackend(/*force_scalar=*/true).name, "scalar");
}

TEST(KernelDispatchTest, UnforcedDispatchPicksBestAvailable) {
  const Backend& picked = DispatchBackend(/*force_scalar=*/false);
  if (const Backend* avx2 = Avx2Backend()) {
    EXPECT_EQ(&picked, avx2);
  } else {
    EXPECT_EQ(&picked, &ScalarBackend());
  }
}

TEST(KernelDispatchTest, SetActiveBackendOverridesAndRestores) {
  SetActiveBackend(&ScalarBackend());
  EXPECT_STREQ(ActiveBackend().name, "scalar");
  SetActiveBackend(nullptr);  // Re-dispatch.
  EXPECT_STREQ(ActiveBackend().name,
               DispatchBackend(ScalarForcedByEnv()).name);
}

TEST(SimdKernelsTest, DotMatchesScalarAcrossDimsAndOffsets) {
  Rng rng(20260729);
  for (const Backend* backend : AvailableBackends()) {
    SCOPED_TRACE(backend->name);
    for (size_t n = 1; n <= 33; ++n) {
      for (size_t offset = 0; offset < 4; ++offset) {
        std::vector<double> a(offset + n), b(offset + n);
        FillRandom(&rng, a.data(), a.size());
        FillRandom(&rng, b.data(), b.size());
        const double* pa = a.data() + offset;
        const double* pb = b.data() + offset;
        const double want = ScalarBackend().Dot(pa, pb, n);
        const double got = backend->Dot(pa, pb, n);
        const double tol = 1e-9 * std::max(1.0, std::fabs(want));
        EXPECT_NEAR(got, want, tol) << "n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(SimdKernelsTest, DotHandlesZeroLength) {
  const double x = 1.0;
  for (const Backend* backend : AvailableBackends()) {
    EXPECT_EQ(backend->Dot(&x, &x, 0), 0.0) << backend->name;
  }
}

TEST(SimdKernelsTest, GemvMatchesPerRowDot) {
  Rng rng(7);
  for (const Backend* backend : AvailableBackends()) {
    SCOPED_TRACE(backend->name);
    for (size_t rows : {1, 2, 3, 5, 8}) {
      for (size_t cols = 1; cols <= 33; ++cols) {
        for (size_t offset = 0; offset < 2; ++offset) {
          std::vector<double> x(offset + cols);
          std::vector<double> mat(offset + rows * cols);
          FillRandom(&rng, x.data(), x.size());
          FillRandom(&rng, mat.data(), mat.size());
          std::vector<double> out(rows, -1.0);
          backend->Gemv(x.data() + offset, mat.data() + offset, rows, cols,
                        out.data());
          for (size_t r = 0; r < rows; ++r) {
            const double want = ScalarBackend().Dot(
                x.data() + offset, mat.data() + offset + r * cols, cols);
            const double tol = 1e-9 * std::max(1.0, std::fabs(want));
            EXPECT_NEAR(out[r], want, tol)
                << "rows=" << rows << " cols=" << cols << " r=" << r
                << " offset=" << offset;
          }
        }
      }
    }
  }
}

// GemvAligned contract: 32-byte-aligned base pointers, cols a multiple of 4
// (the padded stride, padding zero-filled). Must match the scalar per-row
// dot over the padded width to 1e-9 — and the padding must contribute
// nothing (checked by comparing against the unpadded dot too).
TEST(SimdKernelsTest, GemvAlignedMatchesScalarOnPaddedStore) {
  Rng rng(31);
  for (const Backend* backend : AvailableBackends()) {
    SCOPED_TRACE(backend->name);
    for (size_t rows : {1, 2, 3, 5, 8}) {
      for (size_t cols = 1; cols <= 18; ++cols) {
        const size_t stride = data::PaddedStride(cols);
        data::AlignedVector x(stride, 0.0);
        data::AlignedVector mat(rows * stride, 0.0);
        FillRandom(&rng, x.data(), cols);
        for (size_t r = 0; r < rows; ++r) {
          FillRandom(&rng, mat.data() + r * stride, cols);
        }
        ASSERT_EQ(reinterpret_cast<uintptr_t>(x.data()) % 32, 0u);
        ASSERT_EQ(reinterpret_cast<uintptr_t>(mat.data()) % 32, 0u);
        std::vector<double> out(rows, -1.0);
        backend->GemvAligned(x.data(), mat.data(), rows, stride, out.data());
        for (size_t r = 0; r < rows; ++r) {
          const double padded =
              ScalarBackend().Dot(x.data(), mat.data() + r * stride, stride);
          const double unpadded =
              ScalarBackend().Dot(x.data(), mat.data() + r * stride, cols);
          // Zero padding contributes exact zeros: padded == unpadded.
          EXPECT_EQ(padded, unpadded) << "cols=" << cols << " r=" << r;
          const double tol = 1e-9 * std::max(1.0, std::fabs(padded));
          EXPECT_NEAR(out[r], padded, tol)
              << "rows=" << rows << " cols=" << cols << " r=" << r;
        }
      }
    }
  }
}

// CatDeltaBounds contract: every table entry — and therefore the minima —
// bit-for-bit identical across backends (the pruning decisions derived from
// the tables must not depend on the dispatched backend).
TEST(SimdKernelsTest, CatDeltaBoundsBitForBitAcrossBackends) {
  Rng rng(417);
  for (const Backend* backend : AvailableBackends()) {
    SCOPED_TRACE(backend->name);
    for (size_t m = 1; m <= 33; ++m) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<int64_t> counts(m);
        std::vector<double> fractions(m);
        double total = 0.0;
        int64_t size = 0;
        for (size_t s = 0; s < m; ++s) {
          counts[s] = rng.UniformInt(int64_t{0}, int64_t{5000});
          size += counts[s];
          fractions[s] = rng.UniformDouble(0.0, 1.0) + 1e-6;
          total += fractions[s];
        }
        for (size_t s = 0; s < m; ++s) fractions[s] /= total;
        double u2 = 0.0, uq = 0.0, q2 = 0.0;
        ScalarBackend().CatMoments(counts.data(), fractions.data(), m,
                                   static_cast<double>(size), &u2, &uq);
        for (size_t s = 0; s < m; ++s) q2 += fractions[s] * fractions[s];
        const double sb = rng.UniformDouble(0.0, 1e-3);
        const double sr = rng.UniformDouble(0.0, 1e-3);
        const double si = rng.UniformDouble(0.0, 1e-3);
        std::vector<double> want_rem(m), want_ins(m), got_rem(m), got_ins(m);
        double want_rmin = 0.0, want_imin = 0.0, got_rmin = 0.0, got_imin = 0.0;
        ScalarBackend().CatDeltaBounds(counts.data(), fractions.data(), m,
                                       static_cast<double>(size), u2, uq, q2,
                                       sb, sr, si, want_rem.data(),
                                       want_ins.data(), &want_rmin, &want_imin);
        backend->CatDeltaBounds(counts.data(), fractions.data(), m,
                                static_cast<double>(size), u2, uq, q2, sb, sr,
                                si, got_rem.data(), got_ins.data(), &got_rmin,
                                &got_imin);
        EXPECT_EQ(std::memcmp(got_rem.data(), want_rem.data(),
                              m * sizeof(double)), 0) << "m=" << m;
        EXPECT_EQ(std::memcmp(got_ins.data(), want_ins.data(),
                              m * sizeof(double)), 0) << "m=" << m;
        EXPECT_EQ(std::memcmp(&got_rmin, &want_rmin, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&got_imin, &want_imin, sizeof(double)), 0);
        // And the minima really are the row minima.
        EXPECT_EQ(want_rmin, *std::min_element(want_rem.begin(), want_rem.end()));
        EXPECT_EQ(want_imin, *std::min_element(want_ins.begin(), want_ins.end()));
      }
    }
  }
}

// One candidate's gate slack, total - margin, exactly as the scalar
// per-candidate form of the pruning gate's stage 2 evaluates it.
double GateSlack(const PruneGateInput& in, size_t c) {
  const double lb = in.lb0[c] - (in.drift[c] - in.drift_ref[c]);
  const double lbc = lb > 0.0 ? lb : 0.0;
  const double addition_lb = in.addf[c] * lbc * lbc;
  const double fair_insertion = in.lambda * in.insertion[c];
  const double total =
      addition_lb - in.removal_ub + in.fair_removal + fair_insertion;
  const double margin =
      in.rel_slack * (addition_lb + in.removal_ub + std::fabs(in.fair_removal) +
                      std::fabs(fair_insertion) + in.point_norm) +
      in.abs_slack;
  return total - margin;
}

// Every backend's verdict equals the per-candidate one, also when the
// threshold sits exactly on (or one ulp either side of) a candidate's slack,
// for k across full vectors and tails, with negative aged bounds, empty
// candidates and the own cluster excluded.
TEST(SimdKernelsTest, PruneGateLanesVerdictMatchesPerCandidateForm) {
  Rng rng(91);
  for (size_t k = 1; k <= 13; ++k) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> lb0(k), drift_ref(k), drift(k), addf(k), ins(k);
      for (size_t c = 0; c < k; ++c) {
        lb0[c] = rng.UniformDouble(0.0, 2.0);
        drift_ref[c] = rng.UniformDouble(0.0, 1.0);
        drift[c] = drift_ref[c] + rng.UniformDouble(0.0, 1.5);
        addf[c] = rng.Bernoulli(0.1) ? 0.0 : rng.UniformDouble(0.5, 1.0);
        ins[c] = rng.UniformDouble(-1e-3, 1e-3);
      }
      PruneGateInput in;
      in.lb0 = lb0.data();
      in.drift_ref = drift_ref.data();
      in.drift = drift.data();
      in.addf = addf.data();
      in.insertion = ins.data();
      in.k = k;
      in.from = static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(k)));
      in.lambda = std::pow(10.0, rng.UniformDouble(-2.0, 4.0));
      in.removal_ub = rng.UniformDouble(0.0, 2.0);
      in.fair_removal = rng.UniformDouble(-1.0, 1.0);
      in.point_norm = rng.UniformDouble(0.0, 10.0);
      in.rel_slack = 1e-9;
      in.abs_slack = 1e-9;
      const double edge =
          GateSlack(in, static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(k))));
      const double inf = std::numeric_limits<double>::infinity();
      for (const double threshold :
           {edge, std::nextafter(edge, inf), std::nextafter(edge, -inf),
            rng.UniformDouble(-3.0, 3.0)}) {
        in.threshold = threshold;
        bool want = false;
        for (size_t c = 0; c < k; ++c) {
          if (c != in.from && GateSlack(in, c) < threshold) want = true;
        }
        for (const Backend* backend : AvailableBackends()) {
          ASSERT_EQ(backend->PruneGateLanes(in), want)
              << backend->name << " k=" << k << " trial " << trial;
        }
      }
    }
  }
}

TEST(SimdKernelsTest, CatMomentsBitForBitAcrossBackends) {
  Rng rng(99);
  for (const Backend* backend : AvailableBackends()) {
    SCOPED_TRACE(backend->name);
    for (size_t m = 1; m <= 33; ++m) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<int64_t> counts(m);
        std::vector<double> fractions(m);
        double total = 0.0;
        for (size_t s = 0; s < m; ++s) {
          counts[s] = rng.UniformInt(int64_t{0}, int64_t{100000});
          fractions[s] = rng.UniformDouble(0.0, 1.0) + 1e-6;
          total += fractions[s];
        }
        for (size_t s = 0; s < m; ++s) fractions[s] /= total;
        const double size = static_cast<double>(
            rng.UniformInt(int64_t{0}, int64_t{1000000}));
        double want_u2 = 0.0, want_uq = 0.0, got_u2 = 0.0, got_uq = 0.0;
        ScalarBackend().CatMoments(counts.data(), fractions.data(), m, size,
                                   &want_u2, &want_uq);
        backend->CatMoments(counts.data(), fractions.data(), m, size, &got_u2,
                            &got_uq);
        // Bit-for-bit: memcmp of the raw doubles, not a tolerance.
        EXPECT_EQ(std::memcmp(&got_u2, &want_u2, sizeof(double)), 0)
            << "m=" << m << " u2 " << got_u2 << " vs " << want_u2;
        EXPECT_EQ(std::memcmp(&got_uq, &want_uq, sizeof(double)), 0)
            << "m=" << m << " uq " << got_uq << " vs " << want_uq;
      }
    }
  }
}

TEST(SimdKernelsTest, SilhouetteSumsBitForBitAcrossBackends) {
  Rng rng(1515);
  for (const Backend* backend : AvailableBackends()) {
    SCOPED_TRACE(backend->name);
    for (size_t cols = 1; cols <= 33; ++cols) {
      for (size_t tile = 1; tile <= kSilhouetteTile; ++tile) {
        const size_t rows = 1 + rng.UniformInt(uint64_t{13});
        const size_t k = 1 + rng.UniformInt(uint64_t{4});
        const size_t offset = rng.UniformInt(uint64_t{4});
        std::vector<double> mat(offset + rows * cols);
        FillRandom(&rng, mat.data(), mat.size());
        std::vector<double> probe_data(offset + tile * cols);
        FillRandom(&rng, probe_data.data(), probe_data.size());
        std::vector<const double*> probes(tile);
        for (size_t l = 0; l < tile; ++l) {
          probes[l] = probe_data.data() + offset + l * cols;
        }
        std::vector<int32_t> labels(rows);
        for (auto& c : labels) c = static_cast<int32_t>(rng.UniformInt(k));
        // Sums are accumulated into, so start both from the same nonzero
        // values.
        std::vector<double> want(tile * k);
        FillRandom(&rng, want.data(), want.size());
        for (double& v : want) v = std::fabs(v);
        std::vector<double> got = want;
        ScalarBackend().SilhouetteSums(probes.data(), tile,
                                       mat.data() + offset, rows, cols,
                                       labels.data(), k, want.data());
        backend->SilhouetteSums(probes.data(), tile, mat.data() + offset,
                                rows, cols, labels.data(), k, got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)), 0)
            << "cols=" << cols << " tile=" << tile << " rows=" << rows
            << " k=" << k << " offset=" << offset;
      }
    }
  }
}

TEST(SimdKernelsTest, CatMomentsMatchesDirectExpansion) {
  Rng rng(5);
  for (size_t m = 1; m <= 17; ++m) {
    std::vector<int64_t> counts(m);
    std::vector<double> fractions(m, 1.0 / static_cast<double>(m));
    int64_t size = 0;
    for (size_t s = 0; s < m; ++s) {
      counts[s] = rng.UniformInt(int64_t{0}, int64_t{500});
      size += counts[s];
    }
    double direct_u2 = 0.0, direct_uq = 0.0;
    for (size_t s = 0; s < m; ++s) {
      const double u = static_cast<double>(counts[s]) -
                       static_cast<double>(size) * fractions[s];
      direct_u2 += u * u;
      direct_uq += u * fractions[s];
    }
    for (const Backend* backend : AvailableBackends()) {
      double u2 = 0.0, uq = 0.0;
      backend->CatMoments(counts.data(), fractions.data(), m,
                          static_cast<double>(size), &u2, &uq);
      EXPECT_NEAR(u2, direct_u2, 1e-9 * std::max(1.0, direct_u2))
          << backend->name << " m=" << m;
      EXPECT_NEAR(uq, direct_uq, 1e-9) << backend->name << " m=" << m;
    }
  }
}

// End-to-end: a FairKMState driven with the scalar backend and one driven
// with each other backend agree on every batched K-Means delta to 1e-9 and
// on the fairness deltas bit-for-bit (CatMoments contract).
TEST(SimdKernelsTest, FairKMStateDeltasBackendIndependent) {
  constexpr size_t kRows = 60, kDims = 7;
  constexpr int kK = 4;
  Rng rng(1234);
  data::Matrix points(kRows, kDims);
  FillRandom(&rng, points.data().data(), kRows * kDims);

  data::SensitiveView sensitive;
  data::CategoricalSensitive attr;
  attr.name = "group";
  attr.cardinality = 5;
  attr.codes.resize(kRows);
  std::vector<int64_t> value_counts(5, 0);
  for (size_t i = 0; i < kRows; ++i) {
    attr.codes[i] = static_cast<int32_t>(rng.UniformInt(uint64_t{5}));
    ++value_counts[static_cast<size_t>(attr.codes[i])];
  }
  for (int64_t count : value_counts) {
    attr.dataset_fractions.push_back(static_cast<double>(count) /
                                     static_cast<double>(kRows));
  }
  sensitive.categorical.push_back(std::move(attr));

  cluster::Assignment initial(kRows);
  for (auto& a : initial) a = static_cast<int32_t>(rng.UniformInt(uint64_t{kK}));

  struct Probe {
    std::vector<double> km;
    std::vector<double> fair;
  };
  auto run_with = [&](const Backend* backend) {
    SetActiveBackend(backend);
    auto state =
        FairKMState::Create(&points, &sensitive, kK, initial).ValueOrDie();
    Probe probe;
    std::vector<double> km(kK);
    std::vector<double> fair(kK);
    for (size_t i = 0; i < kRows; ++i) {
      state.DeltaKMeansAllClusters(i, km.data());
      state.DeltaFairnessAllClusters(i, fair.data());
      for (int c = 0; c < kK; ++c) {
        probe.km.push_back(km[static_cast<size_t>(c)]);
        probe.fair.push_back(fair[static_cast<size_t>(c)]);
      }
      // Exercise Move/RecomputeCatMoments too.
      if (i % 7 == 0) state.Move(i, static_cast<int>(i) % kK);
    }
    SetActiveBackend(nullptr);
    return probe;
  };

  const Probe want = run_with(&ScalarBackend());
  for (const Backend* backend : AvailableBackends()) {
    if (backend == &ScalarBackend()) continue;
    SCOPED_TRACE(backend->name);
    const Probe got = run_with(backend);
    ASSERT_EQ(got.km.size(), want.km.size());
    for (size_t i = 0; i < want.km.size(); ++i) {
      EXPECT_NEAR(got.km[i], want.km[i],
                  1e-9 * std::max(1.0, std::fabs(want.km[i])))
          << "km delta " << i;
      EXPECT_EQ(got.fair[i], want.fair[i]) << "fairness delta " << i;
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace core
}  // namespace fairkm
