#include "math/roots.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fpsq::math {
namespace {

TEST(Brent, FindsTranscendentalRoot) {
  // x = cos x has root ~0.7390851332151607.
  const auto r = brent([](double x) { return x - std::cos(x); }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 0.7390851332151607, 1e-12);
}

TEST(Brent, ConvergesFasterThanBisection) {
  int brent_calls = 0;
  auto f_brent = [&brent_calls](double x) {
    ++brent_calls;
    return std::exp(x) - 5.0;
  };
  const auto rb = brent(f_brent, 0.0, 10.0, 1e-13);
  EXPECT_NEAR(rb.root, std::log(5.0), 1e-11);
  // Bisection halves [0, 10] down to 1e-13 in ceil(log2(1e14)) = 47
  // steps, after its two endpoint evaluations.
  EXPECT_LT(brent_calls, 2 + 47);
}

TEST(Brent, ThrowsWithoutSignChange) {
  EXPECT_THROW(brent([](double) { return 1.0; }, 0.0, 1.0), BracketError);
}

TEST(FindRootExpanding, ExpandsToBracket) {
  // Root at x = 100, start at 0 with a tiny step.
  const auto r = find_root_expanding(
      [](double x) { return x - 100.0; }, 0.0, 0.5);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 100.0, 1e-9);
}

TEST(FindRootExpanding, ThrowsWhenNoRoot) {
  EXPECT_THROW(find_root_expanding([](double) { return 1.0; }, 0.0, 1.0,
                                   1e-12, 20),
               BracketError);
}

TEST(FindRootExpanding, RejectsBadParameters) {
  EXPECT_THROW(
      find_root_expanding([](double x) { return x; }, 0.0, -1.0),
      std::invalid_argument);
  EXPECT_THROW(find_root_expanding([](double x) { return x; }, 0.0, 1.0,
                                   1e-12, 10, 0.5),
               std::invalid_argument);
}

TEST(NewtonSafe, QuadraticWithDerivative) {
  const auto r = newton_safe([](double x) { return x * x - 9.0; },
                             [](double x) { return 2.0 * x; }, 0.0, 10.0,
                             5.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 3.0, 1e-12);
}

TEST(NewtonSafe, FallsBackWhenDerivativeVanishes) {
  // f(x) = x^3 - 1, derivative vanishes at x = 0 which is inside.
  const auto r = newton_safe([](double x) { return x * x * x - 1.0; },
                             [](double x) { return 3.0 * x * x; }, -1.0,
                             2.0, 0.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 1.0, 1e-10);
}

TEST(NewtonSafe, BisectsOutOfATwoCycle) {
  // Newton on atan started near 1.3917452 alternates between +-x0, each
  // step landing just inside the shrinking bracket; only the rtsafe
  // guard (bisect unless the step halves) breaks the cycle promptly.
  const auto r = newton_safe([](double x) { return std::atan(x); },
                             [](double x) { return 1.0 / (1.0 + x * x); },
                             -1.5, 1.5, 1.3917452);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, 0.0, 1e-12);
  EXPECT_LE(r.iterations, 8);
}

// Property sweep: brent solves e^{ax} = b over a parameter grid.
class BrentSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BrentSweep, SolvesExponentialEquation) {
  const auto [a, b] = GetParam();
  const auto r = brent(
      [a, b](double x) { return std::exp(a * x) - b; }, 0.0, 50.0 / a);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.root, std::log(b) / a, 1e-9 * (1.0 + std::abs(r.root)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BrentSweep,
    ::testing::Combine(::testing::Values(0.1, 1.0, 7.5),
                       ::testing::Values(1.5, 10.0, 1e6)));

}  // namespace
}  // namespace fpsq::math
