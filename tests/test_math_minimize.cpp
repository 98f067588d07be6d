#include "reference/minimize.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fpsq::math {
namespace {

TEST(GoldenSection, QuadraticMinimum) {
  const auto r = golden_section(
      [](double x) { return (x - 3.0) * (x - 3.0) + 2.0; }, -10.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 3.0, 1e-7);
  EXPECT_NEAR(r.value, 2.0, 1e-12);
}

TEST(GoldenSection, EdgeMinimum) {
  // Monotone increasing: minimum at the left edge.
  const auto r = golden_section([](double x) { return x; }, 1.0, 5.0);
  EXPECT_NEAR(r.x, 1.0, 1e-6);
}

TEST(GoldenSection, RejectsEmptyInterval) {
  EXPECT_THROW(golden_section([](double x) { return x; }, 2.0, 1.0),
               std::invalid_argument);
}

TEST(MinimizeScan, FindsDistantMinimum) {
  // Minimum at x = 250, far from the start with a small initial step.
  const auto r = minimize_scan(
      [](double x) { return (x - 250.0) * (x - 250.0); }, 0.0, 0.1);
  EXPECT_NEAR(r.x, 250.0, 1e-5);
}

TEST(MinimizeScan, HandlesMinimumNearStart) {
  const auto r = minimize_scan(
      [](double x) { return (x - 0.05) * (x - 0.05); }, 0.0, 0.01);
  EXPECT_NEAR(r.x, 0.05, 1e-6);
}

TEST(MinimizeScan, RejectsBadParameters) {
  EXPECT_THROW(minimize_scan([](double x) { return x; }, 0.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(minimize_scan([](double x) { return x; }, 0.0, 1.0, 0.9),
               std::invalid_argument);
}

TEST(MaximizeScan, FindsMaximum) {
  // x e^{-x} peaks at x = 1 with value 1/e.
  const auto r = maximize_scan(
      [](double x) { return x * std::exp(-x); }, 0.0, 0.01);
  EXPECT_NEAR(r.x, 1.0, 1e-5);
  EXPECT_NEAR(r.value, std::exp(-1.0), 1e-9);
}

// The Chernoff objective shape: -s(x+t) + lambda t (e^{s d} - 1) style
// concave objectives over t must be maximized reliably for a range of
// parameters.
class ChernoffShape : public ::testing::TestWithParam<double> {};

TEST_P(ChernoffShape, MaximizerIsInterior) {
  const double a = GetParam();
  // f(t) = -(t + a)^2 / t has an interior max at t = a... use a smooth
  // unimodal surrogate: f(t) = log(t) - a t, max at t = 1/a.
  const auto r = maximize_scan(
      [a](double t) { return std::log(t + 1e-12) - a * t; }, 0.0, 1e-3);
  EXPECT_NEAR(r.x, 1.0 / a, 1e-4 * (1.0 + 1.0 / a));
}

INSTANTIATE_TEST_SUITE_P(Grid, ChernoffShape,
                         ::testing::Values(0.05, 0.5, 2.0, 20.0));

}  // namespace
}  // namespace fpsq::math
