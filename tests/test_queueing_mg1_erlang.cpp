#include "queueing/mg1_erlang_service.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dist/erlang.h"
#include "queueing/giek1.h"
#include "queueing/mg1.h"
#include "reference/lindley.h"

namespace fpsq::queueing {
namespace {

TEST(MG1ErlangMix, SingleExponentialComponentIsMM1) {
  // Erlang(1, mu) service = M/M/1: gamma = mu - lambda, E[W] =
  // lambda/(mu(mu-lambda)), exact tail constant rho.
  const double lambda = 0.6;
  const double mu = 1.0;
  const MG1ErlangMixService q{lambda, {{1.0, 1, mu}}};
  EXPECT_NEAR(q.rho(), 0.6, 1e-12);
  EXPECT_NEAR(q.mean_wait(), lambda / (mu * (mu - lambda)), 1e-12);
  EXPECT_NEAR(q.dominant_pole(), mu - lambda, 1e-9);
  // The exact tail is rho e^{-(mu - lambda) x}.
  const auto full = q.full_mgf();
  for (double x : {0.5, 2.0, 8.0}) {
    EXPECT_NEAR(full.tail(x), 0.6 * std::exp(-0.4 * x), 1e-12) << "x=" << x;
  }
}

TEST(MG1ErlangMix, MomentsOfMixture) {
  // 50/50 of Erlang(2, 4) and Erlang(6, 3):
  // E[S] = .5(0.5) + .5(2) = 1.25; E[S^2] = .5(2*3/16) + .5(6*7/9).
  const MG1ErlangMixService q{0.4, {{1.0, 2, 4.0}, {1.0, 6, 3.0}}};
  EXPECT_NEAR(q.mean_service(), 1.25, 1e-12);
  EXPECT_NEAR(q.rho(), 0.5, 1e-12);
  const double es2 = 0.5 * (6.0 / 16.0) + 0.5 * (42.0 / 9.0);
  EXPECT_NEAR(q.mean_wait(), 0.4 * es2 / (2.0 * 0.5), 1e-12);
}

TEST(MG1ErlangMix, DominantPoleSolvesDefiningEquation) {
  const MG1ErlangMixService q{0.3, {{2.0, 3, 2.0}, {1.0, 9, 6.0}}};
  const double g = q.dominant_pole();
  EXPECT_GT(g, 0.0);
  EXPECT_LT(g, 2.0);  // below the smallest component rate
  EXPECT_NEAR(g, q.lambda() * (q.service_mgf(g) - 1.0), 1e-8 * (1 + g));
}

TEST(MG1ErlangMix, MatchesLindleyMonteCarlo) {
  // lambda = 0.25, service 70/30 mix of Erlang(9, 6) and Erlang(3, 2).
  const MG1ErlangMixService q{0.25, {{0.7, 9, 6.0}, {0.3, 3, 2.0}}};
  const dist::Erlang s1{9, 6.0};
  const dist::Erlang s2{3, 2.0};
  LindleyOptions opt;
  opt.samples = 500000;
  opt.seed = 77;
  const auto mc = simulate_gg1(
      [](dist::Rng& rng) { return rng.exponential(0.25); },
      [&](dist::Rng& rng) {
        return rng.uniform01() < 0.7 ? s1.sample(rng) : s2.sample(rng);
      },
      opt);
  EXPECT_NEAR(q.mean_wait(), mc.mean_wait, 0.05 * mc.mean_wait);
  EXPECT_NEAR(1.0 - q.rho(), mc.p_wait_zero, 0.02);
  // Exact tail vs simulated tail in the moderate range.
  const auto full = q.full_mgf();
  for (double x : {2.0, 4.0}) {
    EXPECT_NEAR(full.tail(x), mc.waits.tdf(x),
                0.25 * mc.waits.tdf(x) + 5e-4)
        << "x=" << x;
  }
}

TEST(MG1ErlangMix, ReducesToDeterministicMixLimit) {
  // Large-K Erlang components approach deterministic service: the
  // dominant pole must approach the MG1DeterministicMix pole.
  const double lambda = 0.5;
  const double d = 1.0;
  const MG1DeterministicMix det{{{lambda, d}}};
  for (int k : {8, 64, 512}) {
    const MG1ErlangMixService erl{
        lambda, {{1.0, k, static_cast<double>(k) / d}}};
    const double ratio = erl.dominant_pole() / det.dominant_pole();
    EXPECT_LT(std::abs(ratio - 1.0), 4.0 / std::sqrt(double(k)))
        << "k=" << k;
  }
}

TEST(MG1ErlangMix, FullMgfIsExactForMM1) {
  // M/M/1: one pole mu - lambda with coefficient rho.
  const MG1ErlangMixService q{0.6, {{1.0, 1, 1.0}}};
  const auto full = q.full_mgf();
  ASSERT_EQ(full.terms().size(), 1u);
  EXPECT_NEAR(full.terms()[0].theta.real(), 0.4, 1e-10);
  EXPECT_NEAR(full.terms()[0].coeff.real(), 0.6, 1e-10);
  EXPECT_NEAR(full.total_mass(), 1.0, 1e-12);
}

TEST(MG1ErlangMix, FullMgfHasTotalOrderPolesAndUnitMass) {
  const MG1ErlangMixService q{0.3, {{2.0, 3, 2.0}, {1.0, 9, 6.0}}};
  EXPECT_EQ(q.total_order(), 12);
  const auto full = q.full_mgf();
  EXPECT_EQ(full.terms().size(), 12u);
  EXPECT_NEAR(full.total_mass(), 1.0, 1e-9);
  EXPECT_NEAR(full.tail(0.0), q.rho(), 1e-9);  // P(W > 0) = rho
  EXPECT_NEAR(full.mean(), q.mean_wait(), 1e-8 * (1.0 + q.mean_wait()));
  // Dominant pole agrees with the scalar root solve.
  EXPECT_NEAR(full.dominant_pole().real(), q.dominant_pole(), 1e-8);
}

TEST(MG1ErlangMix, FullMgfMatchesMonteCarloNearTheOrigin) {
  // M/E4/1: exact tail at small x, where a one-pole form is biased.
  const MG1ErlangMixService q{0.7, {{1.0, 4, 4.0}}};
  const auto full = q.full_mgf();
  LindleyOptions opt;
  opt.samples = 600000;
  opt.seed = 999;
  const dist::Erlang service{4, 4.0};
  const auto mc = simulate_gg1(
      [](dist::Rng& rng) { return rng.exponential(0.7); },
      [&service](dist::Rng& rng) { return service.sample(rng); }, opt);
  for (double x : {0.2, 0.5, 1.0, 3.0}) {
    EXPECT_NEAR(full.tail(x), mc.waits.tdf(x),
                0.03 * mc.waits.tdf(x) + 2e-3)
        << "x=" << x;
  }
}

TEST(MG1ErlangMix, FullMgfTailMonotoneAndPositive) {
  const MG1ErlangMixService q{0.2, {{0.5, 9, 9.0}, {0.5, 20, 30.0}}};
  const auto full = q.full_mgf();
  double prev = 1.0 + 1e-12;
  for (double x = 0.0; x <= 4.0; x += 0.1) {
    const double t = full.tail(x);
    EXPECT_GE(t, -1e-9) << "x=" << x;
    EXPECT_LE(t, prev + 1e-9) << "x=" << x;
    prev = t;
  }
}

TEST(MG1ErlangMix, FullMgfMatchesGiEk1OnPoissonArrivals) {
  // M/E_K/1 two ways: the all-pole search here and the zeta roots of
  // GiEk1Solver on exponential interarrival times, to a high order.
  const double b = 0.8;
  for (int k : {3, 20, 64, 128}) {
    for (double rho : {0.05, 0.5, 0.95}) {
      const double lambda = rho / b;
      const MG1ErlangMixService q{lambda, {{1.0, k, k / b}}};
      const auto full = q.full_mgf();
      ASSERT_EQ(full.terms().size(), static_cast<std::size_t>(k));
      const GiEk1Solver ref{k, b, gamma_arrivals(1.0, lambda)};
      EXPECT_NEAR(full.constant_term(), ref.p_wait_zero(), 1e-9)
          << "k=" << k << " rho=" << rho;
      for (double eps : {1e-3, 1e-8}) {
        const double want = ref.wait_quantile(eps);
        EXPECT_NEAR(full.quantile(eps), want, 1e-8 * want)
            << "k=" << k << " rho=" << rho << " eps=" << eps;
      }
    }
  }
}

TEST(MG1ErlangMix, Guards) {
  EXPECT_THROW(MG1ErlangMixService(0.0, {{1.0, 1, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(MG1ErlangMixService(1.0, {}), std::invalid_argument);
  EXPECT_THROW(MG1ErlangMixService(1.0, {{1.0, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(MG1ErlangMixService(2.0, {{1.0, 1, 1.0}}),
               std::invalid_argument);  // rho = 2
  const MG1ErlangMixService q{0.5, {{1.0, 1, 1.0}}};
  EXPECT_THROW(q.service_mgf(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
