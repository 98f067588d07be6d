#include "queueing/giek1.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dist/erlang.h"
#include "dist/gamma.h"
#include "reference/lindley.h"

namespace fpsq::queueing {
namespace {

TEST(GiEk1, ErlangArrivalsMatchLindleyMonteCarlo) {
  // E_3 / E_9 / 1 at rho = 0.6 (the configuration verified during
  // development to 4 decimals).
  const int m = 3, k = 9;
  const double nu = 3.0, rho = 0.6;
  const GiEk1Solver q{k, rho, gamma_arrivals(m, nu)};
  const dist::Erlang iat{m, nu};
  const dist::Erlang svc = dist::Erlang::from_mean(k, rho);
  LindleyOptions opt;
  opt.samples = 1000000;
  opt.seed = 4;
  const auto mc = simulate_gg1(
      [&iat](dist::Rng& r) { return iat.sample(r); },
      [&svc](dist::Rng& r) { return svc.sample(r); }, opt);
  EXPECT_NEAR(q.p_wait_zero(), mc.p_wait_zero, 0.01);
  for (double x : {0.2, 0.5, 1.0}) {
    EXPECT_NEAR(q.wait_tail(x), mc.waits.tdf(x),
                0.05 * mc.waits.tdf(x) + 5e-4)
        << "x=" << x;
  }
  EXPECT_NEAR(q.mean_wait(), mc.mean_wait, 0.04 * mc.mean_wait);
}

TEST(GiEk1, GammaArrivalsMatchLindleyMonteCarlo) {
  // Non-integer shape: Gamma(CoV 0.3) ticks — the jittered-tick model.
  const int k = 9;
  const double rho = 0.7;
  const auto arrivals = gamma_arrivals_mean_cov(1.0, 0.3);
  const GiEk1Solver q{k, rho, arrivals};
  const dist::Gamma iat{1.0 / 0.09, 1.0 / 0.09};
  const dist::Erlang svc = dist::Erlang::from_mean(k, rho);
  LindleyOptions opt;
  opt.samples = 1000000;
  opt.seed = 17;
  const auto mc = simulate_gg1(
      [&iat](dist::Rng& r) { return iat.sample(r); },
      [&svc](dist::Rng& r) { return svc.sample(r); }, opt);
  EXPECT_NEAR(q.p_wait_zero(), mc.p_wait_zero, 0.012);
  for (double x : {0.3, 0.8, 1.5}) {
    EXPECT_NEAR(q.wait_tail(x), mc.waits.tdf(x),
                0.06 * mc.waits.tdf(x) + 6e-4)
        << "x=" << x;
  }
}

TEST(GiEk1, JitterThickensTheTailMonotonically) {
  // At fixed load, more tick jitter = heavier waiting tail; the
  // deterministic case is the lower envelope.
  const int k = 9;
  const double rho = 0.6;
  const double x = 0.8;
  const GiEk1Solver det{k, rho, deterministic_arrivals(1.0)};
  double prev = det.wait_tail(x);
  for (double cov : {0.1, 0.3, 0.6, 1.0}) {
    const GiEk1Solver q{k, rho, gamma_arrivals_mean_cov(1.0, cov)};
    const double t = q.wait_tail(x);
    EXPECT_GT(t, prev) << "cov=" << cov;
    prev = t;
  }
}

TEST(GiEk1, PoissonArrivalsRecoverMEk1) {
  // Gamma shape 1 = exponential interarrivals: M/E_K/1, whose P(W = 0)
  // is exactly 1 - rho.
  const GiEk1Solver q{5, 0.65, gamma_arrivals(1.0, 1.0)};
  EXPECT_NEAR(q.p_wait_zero(), 0.35, 1e-9);
}

TEST(GiEk1, MgfIsProperAcrossGrid) {
  for (int k : {1, 2, 9, 20}) {
    for (double cov : {0.05, 0.3, 0.8}) {
      for (double rho : {0.3, 0.7, 0.92}) {
        const GiEk1Solver q{k, rho, gamma_arrivals_mean_cov(1.0, cov)};
        EXPECT_NEAR(q.waiting_mgf().total_mass(), 1.0, 1e-8)
            << "k=" << k << " cov=" << cov << " rho=" << rho;
        EXPECT_GE(q.p_wait_zero(), -1e-9);
        double prev = 1.0 + 1e-9;
        for (double x = 0.0; x <= 2.0; x += 0.25) {
          const double t = q.wait_tail(x);
          EXPECT_LE(t, prev + 1e-9);
          EXPECT_GE(t, -1e-9);
          prev = t;
        }
      }
    }
  }
}

// Jittered ticks at low load, where the waiting tail amplifies a root
// error the most. Each reference is a 50-digit mpmath computation with
// T = 1 and Gamma interarrivals of shape = rate = CoV^-2:
//   1. start from the Lambert-W roots of the deterministic map,
//      zeta_j = -rho W0(-(1/rho) e^{-1/rho} e^{2 pi i j/K});
//   2. continue them in CoV (40 steps up from 0) with findroot on
//      z = omega_j exp(-(shape/K) log(1 + beta (1 - z)/rate));
//   3. form the Appendix-D Lagrange weights a_j;
//   4. bisect P(W > x) = Re sum_j a_j e^{-beta (1 - zeta_j) x} = epsilon.
TEST(GiEk1, LowLoadQuantilesMatchHighPrecisionReference) {
  struct Case {
    int k;
    double rho, cov, epsilon, reference_s;
  };
  for (const Case& c : {Case{16, 0.35, 0.05, 2e-7, 0.02086681953173396},
                        Case{20, 0.3717, 0.0614, 3e-7, 6.0718660341011542e-4},
                        Case{32, 0.29, 0.2, 4e-6, 0.011925025379522869}}) {
    const GiEk1Solver q{c.k, c.rho, gamma_arrivals_mean_cov(1.0, c.cov)};
    EXPECT_NEAR(q.wait_quantile(c.epsilon), c.reference_s,
                1e-7 * c.reference_s)
        << "k=" << c.k << " rho=" << c.rho << " cov=" << c.cov;
  }
}

// The paper's own law, D/E_K/1, at low load and at the two extremes of
// the served range (rho_d >= 0.99, K >= 64). Each reference is a
// 50-digit mpmath 1.3.0 computation with T = 1 at the exact double
// parameters below:
//   1. zeta_j = -rho lambertw(-(1/rho) e^{-1/rho} e^{2 pi i j/K}, 0);
//   2. the eq.-27 weights a_j = zeta_j^K prod_{l != j} (zeta_l - 1) /
//      (zeta_l - zeta_j);
//   3. bisect Re sum_j a_j e^{-beta (1 - zeta_j) x} = epsilon, with
//      beta = K/rho.
TEST(GiEk1, DeterministicQuantilesMatchHighPrecisionReference) {
  struct Case {
    int k;
    double rho, epsilon, reference_s;
  };
  for (const Case& c :
       {Case{4, 0.18620643298486506, 4.25628483680968e-07,
             0.039648023008342517752},
        Case{3, 0.17170993647539737, 6.132114012725065e-07,
             0.1259180863254020703},
        Case{20, 0.4115923756035129, 1.0125566120221947e-07,
             0.079000754675513025774},
        Case{32, 0.5567114453745408, 5.770083521484685e-05,
             0.018726802085859998619},
        Case{9, 0.993, 1e-05, 90.711077704959528527},
        Case{64, 0.72, 1e-06, 0.23219629323627869532}}) {
    const GiEk1Solver q{c.k, c.rho, deterministic_arrivals(1.0)};
    EXPECT_NEAR(q.wait_quantile(c.epsilon), c.reference_s,
                1e-10 * c.reference_s)
        << "k=" << c.k << " rho=" << c.rho;
  }
}

TEST(GiEk1, LambertRootsMatchTheSearchedRoots) {
  // The same eq.-26 map under another name takes the Picard/Newton
  // search: both paths must find the same roots, index by index (root j
  // belongs to rotation e^{2 pi i j/K}).
  ArrivalTransform searched = deterministic_arrivals(1.0);
  searched.name = "DetSearched";
  for (int k : {1, 2, 3, 4, 9, 16, 20, 32, 64}) {
    for (double rho : {0.06, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95}) {
      const GiEk1Solver closed{k, rho, deterministic_arrivals(1.0)};
      const GiEk1Solver search{k, rho, searched};
      ASSERT_EQ(closed.zetas().size(), search.zetas().size());
      for (std::size_t j = 0; j < closed.zetas().size(); ++j) {
        EXPECT_LE(std::abs(closed.zetas()[j] - search.zetas()[j]), 1e-13)
            << "k=" << k << " rho=" << rho << " j=" << j;
      }
      EXPECT_EQ(closed.zetas()[0].imag(), 0.0);
      EXPECT_EQ(closed.degenerate(), search.degenerate());
    }
  }
}

TEST(GiEk1, DeterministicRootsConvergeForEveryStableLoad) {
  std::vector<int> ks;
  for (int k = 1; k <= 40; ++k) ks.push_back(k);
  for (int k : {64, 96, 128, 200, 256, 300, 384, 450, 511, 512}) {
    ks.push_back(k);
  }
  for (int k : ks) {
    for (double rho : {1e-6, 1e-3, 0.05, 0.2, 0.5, 0.8, 0.99, 0.999,
                       1.0 - 1e-6, 1.0 - 1e-9, std::nextafter(1.0, 0.0)}) {
      const auto q = GiEk1Solver::create(k, rho, deterministic_arrivals(1.0));
      if (q.ok()) {
        EXPECT_EQ(q.value().zetas()[0].imag(), 0.0);
        continue;
      }
      EXPECT_NE(q.error().code, err::SolverErrorCode::kNonConvergence)
          << "k=" << k << " rho=" << rho << ": " << q.error().message();
    }
  }
}

TEST(GiEk1, NeighbourDegeneracyTestMatchesAllPairs) {
  // degenerate() compares rotation neighbours only; the all-pairs
  // minimum of the relative pole distances must reach the same verdict.
  for (int k = 1; k <= 64; ++k) {
    for (double rho = 0.03; rho < 0.99; rho *= 1.07) {
      const GiEk1Solver q{k, rho, deterministic_arrivals(1.0)};
      const auto& p = q.poles();
      double min_rel = 1.0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        min_rel = std::min(min_rel, std::abs(p[i] - q.beta()) / q.beta());
        for (std::size_t j = i + 1; j < p.size(); ++j) {
          min_rel = std::min(min_rel, std::abs(p[i] - p[j]) /
                                          std::max(std::abs(p[i]),
                                                   std::abs(p[j])));
        }
      }
      EXPECT_EQ(q.degenerate(), min_rel <= 10.0 * ErlangMixMgf::kPoleClash)
          << "k=" << k << " rho=" << rho;
    }
  }
}

TEST(GiEk1, TelemetryNamesFollowTheArrivalLaw) {
  // Deterministic ticks keep the paper's D/E_K/1 site and cache family.
  const SolverNames& det = solver_names(deterministic_arrivals(0.04));
  EXPECT_STREQ(det.site, "queueing.dek1");
  EXPECT_STREQ(det.cache_hits, "queueing.cache.dek1.hits");
  const SolverNames& jit =
      solver_names(gamma_arrivals_mean_cov(0.04, 0.07));
  EXPECT_STREQ(jit.site, "queueing.giek1");
  EXPECT_STREQ(jit.cache_misses, "queueing.cache.giek1.misses");
  EXPECT_STREQ(solver_names(gamma_arrivals(3.0, 1.0)).site,
               "queueing.giek1");
}

TEST(GiEk1, Guards) {
  EXPECT_THROW(GiEk1Solver(0, 0.5, deterministic_arrivals(1.0)),
               std::invalid_argument);
  EXPECT_THROW(GiEk1Solver(2, 1.0, deterministic_arrivals(1.0)),
               std::invalid_argument);  // rho = 1
  EXPECT_THROW(deterministic_arrivals(0.0), std::invalid_argument);
  EXPECT_THROW(gamma_arrivals(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(gamma_arrivals(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(gamma_arrivals_mean_cov(1.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
