#include "math/fixed_point.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fpsq::math {
namespace {

TEST(FixedPoint, RealContraction) {
  // z = cos z, the classic.
  auto F = [](Complex z) { return std::cos(z); };
  auto dF = [](Complex z) { return -std::sin(z); };
  const auto r = solve_fixed_point(F, dF, Complex{0, 0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root.real(), 0.7390851332151607, 1e-12);
  EXPECT_NEAR(r.root.imag(), 0.0, 1e-12);
}

TEST(FixedPoint, WorksWithoutDerivative) {
  auto F = [](Complex z) { return 0.5 * z + Complex{1.0, 0.0}; };
  const auto r =
      solve_fixed_point(F, std::function<Complex(Complex)>{}, {0, 0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root.real(), 2.0, 1e-12);
}

// The paper's pole equation (eq. 26): z = exp((z-1)/rho + i phi).
class Eq26Sweep
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(Eq26Sweep, RootSatisfiesEquationInsideUnitDisk) {
  const auto [rho, big_k, k] = GetParam();
  if (k >= big_k) GTEST_SKIP();
  const double phi = 2.0 * M_PI * k / big_k;
  const Complex rot = std::exp(Complex{0.0, phi});
  auto F = [&](Complex z) {
    return rot * std::exp((z - Complex{1.0, 0.0}) / rho);
  };
  auto dF = [&](Complex z) { return F(z) / rho; };
  const auto r = solve_fixed_point(F, dF, Complex{0, 0}, 1e-15, 50000);
  ASSERT_TRUE(r.converged) << "rho=" << rho << " k=" << k;
  // Residual of the defining equation.
  EXPECT_LT(std::abs(F(r.root) - r.root), 1e-12);
  // Appendix C: |zeta| < 1 and Re zeta < 1.
  EXPECT_LT(std::abs(r.root), 1.0);
  EXPECT_LT(r.root.real(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Eq26Sweep,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.8, 0.95),
                       ::testing::Values(1, 2, 9, 20),
                       ::testing::Values(0, 1, 5, 13)));

TEST(FixedPoint, ReportsNonConvergenceHonestly) {
  // Expanding map: |F'| = 2 > 1; must not claim convergence.
  auto F = [](Complex z) { return 2.0 * z + Complex{1.0, 0.0}; };
  const auto r = solve_fixed_point(
      F, std::function<Complex(Complex)>{}, {1.0, 0.0}, 1e-15, 50);
  EXPECT_FALSE(r.converged);
}

TEST(FixedPoint, UnreachableToleranceEndsAfterOneNewtonPhase) {
  // The D/E_K/1 map at rho 0.5 cannot reach |F(z) - z| < 1e-18 in
  // doubles. The solve must give up after one Newton phase instead of
  // re-entering Newton on each of its 20000 outer iterations (2.4M map
  // evaluations), and report the Newton steps it took.
  const double rho = 0.5;
  long evals = 0;
  auto F = [&](Complex z) {
    ++evals;
    return std::exp((z - Complex{1.0, 0.0}) / rho);
  };
  auto dF = [&](Complex z) { return F(z) / rho; };
  const auto r = solve_fixed_point(F, dF, Complex{0, 0}, 1e-18, 20000);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(evals, 1000);
  EXPECT_GT(r.iterations, 60);  // Picard steps plus the Newton phase
  // The root itself is as good as doubles allow.
  EXPECT_LT(r.residual, 1e-15);
}

}  // namespace
}  // namespace fpsq::math
