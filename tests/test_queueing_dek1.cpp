// The paper's D/E_K/1 burst wait (Section 3.2.1): the E_K/1 solver on
// deterministic ticks, A(u) = e^{-uT}.
#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "dist/erlang.h"
#include "queueing/giek1.h"
#include "reference/convolution.h"
#include "reference/linalg.h"
#include "test_util.h"

namespace fpsq::queueing {
namespace {

/// D/E_K/1 with mean burst service b and tick period T.
GiEk1Solver dek1(int k, double mean_service_s, double period_s = 1.0) {
  return GiEk1Solver{k, mean_service_s, deterministic_arrivals(period_s)};
}

/// The burst's own Erlang(K, beta) service as a one-component mixture:
/// the system time is W + B.
ErlangMixture own_service(const GiEk1Solver& q) {
  std::vector<double> w(static_cast<std::size_t>(q.k()), 0.0);
  w.back() = 1.0;
  return ErlangMixture{q.beta(), std::move(w)};
}

double convolved_system_tail(const GiEk1Solver& q, double x) {
  return convolved_tail(q.waiting_mgf(), own_service(q), x);
}

double convolved_system_quantile(const GiEk1Solver& q, double epsilon) {
  return convolved_quantile(q.waiting_mgf(), own_service(q), epsilon);
}

TEST(DEk1, K1RecoversDM1ClosedForm) {
  // D/M/1: W(s) = (1 - sigma) + sigma alpha/(alpha - s) with sigma the
  // root of z = exp(-(1-z)/rho) and alpha = mu (1 - sigma).
  const double rho = 0.6;
  const GiEk1Solver q = dek1(1, rho);
  const double sigma = q.zetas()[0].real();
  EXPECT_NEAR(sigma, std::exp(-(1.0 - sigma) / rho), 1e-12);
  EXPECT_NEAR(q.p_wait_zero(), 1.0 - sigma, 1e-12);
  const double mu = 1.0 / rho;  // beta for K = 1
  EXPECT_NEAR(q.waiting_mgf().dominant_pole().real(), mu * (1.0 - sigma),
              1e-10);
  // Tail: P(W > x) = sigma e^{-alpha x}.
  for (double x : {0.5, 2.0, 5.0}) {
    EXPECT_NEAR(q.wait_tail(x),
                sigma * std::exp(-mu * (1.0 - sigma) * x), 1e-12);
  }
}

class DEk1Sweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(DEk1Sweep, RootsSatisfyPoleEquation) {
  const auto [k, rho] = GetParam();
  const GiEk1Solver q = dek1(k, rho);
  // Every pole must satisfy (1 - s/beta)^K = exp(-s T)  (eq. 54).
  for (const auto& s : q.poles()) {
    const Complex lhs =
        std::pow(Complex{1.0, 0.0} - s / q.beta(), q.k());
    const Complex rhs = std::exp(-s * q.arrivals().mean);
    EXPECT_LT(std::abs(lhs - rhs), 1e-9 * (1.0 + std::abs(rhs)))
        << "k=" << k << " rho=" << rho;
    EXPECT_GT(s.real(), 0.0);
  }
}

TEST_P(DEk1Sweep, WeightsSolveVandermondeSystem) {
  const auto [k, rho] = GetParam();
  const GiEk1Solver q = dek1(k, rho);
  // Eq. (62): sum_j a_j (1/zeta_j)^m = 1 for m = 1..K. Cross-check the
  // closed form against a dense linear solve.
  math::CVector y(q.zetas().size());
  for (std::size_t j = 0; j < y.size(); ++j) {
    y[j] = Complex{1.0, 0.0} / q.zetas()[j];
  }
  // System: sum_j (a_j y_j) y_j^{m-1} = 1.
  const math::CVector ones(y.size(), Complex{1.0, 0.0});
  const auto u = math::solve_vandermonde_transposed(y, ones);
  for (std::size_t j = 0; j < y.size(); ++j) {
    const Complex a_direct = u[j] / y[j];
    EXPECT_LT(std::abs(a_direct - q.weights()[j]),
              1e-7 * (1.0 + std::abs(a_direct)))
        << "j=" << j << " k=" << k << " rho=" << rho;
  }
}

TEST_P(DEk1Sweep, MgfIsAProperDistribution) {
  const auto [k, rho] = GetParam();
  const GiEk1Solver q = dek1(k, rho);
  EXPECT_NEAR(q.waiting_mgf().total_mass(), 1.0, 1e-9);
  EXPECT_GE(q.p_wait_zero(), 0.0);
  EXPECT_LE(q.p_wait_zero(), 1.0 + 1e-12);
  EXPECT_GE(q.mean_wait(), -1e-12);
  // Tail is monotone nonincreasing and within [0, 1].
  double prev = 1.0 + 1e-12;
  for (double x = 0.0; x <= 3.0; x += 0.1) {
    const double t = q.wait_tail(x);
    EXPECT_LE(t, prev + 1e-9);
    EXPECT_GE(t, -1e-9);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DEk1Sweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 9, 20),
                       ::testing::Values(0.2, 0.5, 0.8, 0.95)));

TEST(DEk1, MatchesLindleyMonteCarlo) {
  // D/E_K/1 waiting times against a brute-force Lindley recursion.
  for (const auto& [k, rho] : {std::pair{2, 0.7}, std::pair{9, 0.5},
                               std::pair{20, 0.8}}) {
    const GiEk1Solver q = dek1(k, rho);
    dist::Erlang service = dist::Erlang::from_mean(k, rho);
    const auto mc = testutil::lindley_gg1(
        [](dist::Rng&) { return 1.0; },
        [&service](dist::Rng& rng) { return service.sample(rng); },
        400000, 2000, 123);
    // Mean wait.
    EXPECT_NEAR(q.mean_wait(), mc.mean(),
                0.05 * (mc.mean() + 0.01))
        << "k=" << k << " rho=" << rho;
    // P(W = 0) (Monte Carlo: exact zeros).
    EXPECT_NEAR(q.p_wait_zero(), mc.cdf(0.0), 0.02)
        << "k=" << k << " rho=" << rho;
    // 99.9% quantile.
    EXPECT_NEAR(q.wait_quantile(1e-3), mc.quantile(0.999),
                0.12 * (mc.quantile(0.999) + 0.01))
        << "k=" << k << " rho=" << rho;
  }
}

TEST(DEk1, DegenerateLowLoadCollapsesToZero) {
  const GiEk1Solver q = dek1(20, 0.02);
  EXPECT_TRUE(q.degenerate());
  EXPECT_DOUBLE_EQ(q.p_wait_zero(), 1.0);
  EXPECT_DOUBLE_EQ(q.wait_tail(0.001), 0.0);
  EXPECT_EQ(q.zetas().size(), 20u);  // roots still reported
}

TEST(DEk1, NonDegenerateAtModerateLoad) {
  const GiEk1Solver q = dek1(20, 0.3);
  EXPECT_FALSE(q.degenerate());
  EXPECT_LT(q.p_wait_zero(), 1.0);
}

TEST(DEk1, MeanWaitGrowsWithLoad) {
  double prev = -1.0;
  for (double rho : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    const GiEk1Solver q = dek1(9, rho);
    EXPECT_GT(q.mean_wait(), prev);
    prev = q.mean_wait();
  }
}

TEST(DEk1, TailDecreasesWithK) {
  // Higher K = more regular bursts = lighter waiting tail (the paper's
  // key sensitivity, Figure 3).
  const double x = 0.8;
  double prev = 1.0;
  for (int k : {2, 5, 9, 20}) {
    const GiEk1Solver q = dek1(k, 0.6);
    const double t = q.wait_tail(x);
    EXPECT_LT(t, prev) << "k=" << k;
    prev = t;
  }
}

TEST(DEk1, GuardsParameters) {
  EXPECT_THROW(dek1(0, 0.5), std::invalid_argument);
  EXPECT_THROW(dek1(2, -0.5), std::invalid_argument);
  EXPECT_THROW(dek1(2, 1.0), std::invalid_argument);  // rho = 1
  EXPECT_THROW(dek1(2, 2.0), std::invalid_argument);
}

TEST(DEk1, ScalesWithTimeUnits) {
  // Scaling both service and period leaves the law shape-identical with
  // rescaled argument.
  const GiEk1Solver a = dek1(5, 0.6, 1.0);
  const GiEk1Solver b = dek1(5, 0.06, 0.1);
  EXPECT_NEAR(a.wait_tail(0.5), b.wait_tail(0.05), 1e-10);
  EXPECT_NEAR(a.mean_wait(), 10.0 * b.mean_wait(), 1e-10);
}

TEST(DEk1, DegenerateRegimeIsAFullPointMass) {
  // Collapsed-pole regime (rho = 0.05, |zeta| ~ e^{-20}): the solver
  // reports success with W collapsed to a point mass at zero — not a
  // numerical failure. Every query must be consistent with that law.
  auto created = GiEk1Solver::create(4, 0.05, deterministic_arrivals(1.0));
  ASSERT_TRUE(created.ok());
  const GiEk1Solver& q = created.value();
  EXPECT_TRUE(q.degenerate());
  EXPECT_DOUBLE_EQ(q.p_wait_zero(), 1.0);
  EXPECT_DOUBLE_EQ(q.mean_wait(), 0.0);
  EXPECT_DOUBLE_EQ(q.wait_quantile(1e-6), 0.0);
  // The MGF is the constant 1 (pure atom, no exponential terms).
  EXPECT_DOUBLE_EQ(q.waiting_mgf().value_real(0.5), 1.0);
  // System time degenerates to the bare Erlang service: W + B = B.
  const double st = convolved_system_quantile(q, 1e-3);
  EXPECT_GT(st, 0.0);
  EXPECT_LT(st, 1.0);
  // The factory and the throwing constructor agree on degeneracy.
  const GiEk1Solver direct = dek1(4, 0.05);
  EXPECT_TRUE(direct.degenerate());
  EXPECT_EQ(convolved_system_quantile(direct, 1e-3), st);
}

TEST(DEk1SystemTime, ExceedsWaitAndMatchesConvolutionSanity) {
  const GiEk1Solver q = dek1(9, 0.6);
  // System time = wait + Erlang(K) service: stochastically larger.
  for (double x : {0.3, 0.8, 1.5}) {
    EXPECT_GE(convolved_system_tail(q, x), q.wait_tail(x));
  }
  EXPECT_GT(convolved_system_quantile(q, 1e-3), q.wait_quantile(1e-3));
  // At x below the minimum plausible service the tail is ~1.
  EXPECT_GT(convolved_system_tail(q, 0.05), 0.9);
}

}  // namespace
}  // namespace fpsq::queueing
