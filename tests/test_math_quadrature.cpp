#include "reference/quadrature.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fpsq::math {
namespace {

TEST(Integrate, PolynomialExact) {
  // Simpson is exact for cubics.
  const double v = integrate(
      [](double x) { return x * x * x - 2.0 * x + 1.0; }, 0.0, 2.0);
  EXPECT_NEAR(v, 4.0 - 4.0 + 2.0, 1e-12);
}

TEST(Integrate, Exponential) {
  const double v = integrate([](double x) { return std::exp(x); }, 0.0,
                             1.0, 1e-12);
  EXPECT_NEAR(v, std::exp(1.0) - 1.0, 1e-10);
}

TEST(Integrate, Oscillatory) {
  const double v = integrate([](double x) { return std::sin(10.0 * x); },
                             0.0, M_PI, 1e-12);
  EXPECT_NEAR(v, (1.0 - std::cos(10.0 * M_PI)) / 10.0, 1e-9);
}

TEST(Integrate, SharpPeak) {
  // Narrow Gaussian centered mid-interval.
  const double s = 0.01;
  const double v = integrate(
      [s](double x) {
        const double z = (x - 0.37) / s;
        return std::exp(-0.5 * z * z) / (s * std::sqrt(2.0 * M_PI));
      },
      0.0, 1.0, 1e-11);
  EXPECT_NEAR(v, 1.0, 1e-7);
}

TEST(Integrate, EmptyInterval) {
  EXPECT_DOUBLE_EQ(integrate([](double) { return 5.0; }, 1.0, 1.0), 0.0);
}

TEST(Integrate, ReversedIntervalThrows) {
  EXPECT_THROW(integrate([](double x) { return x; }, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Integrate, ErlangTailIntegralMatchesMean) {
  // E[X] = int_0^inf P(X > x) dx; truncate far into the tail.
  const double rate = 2.0;
  const int k = 4;
  const double v = integrate(
      [rate, k](double x) {
        double term = std::exp(-rate * x);
        double sum = 0.0;
        for (int i = 0; i < k; ++i) {
          sum += term;
          term *= rate * x / (i + 1);
        }
        return sum;
      },
      0.0, 40.0, 1e-11);
  EXPECT_NEAR(v, static_cast<double>(k) / rate, 1e-7);
}

}  // namespace
}  // namespace fpsq::math
