#include "math/special.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fpsq::math {
namespace {

TEST(LogGamma, KnownValues) {
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(2.0), 0.0, 1e-14);
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-12);
  EXPECT_NEAR(log_gamma(10.5), std::lgamma(10.5), 1e-11);
  EXPECT_NEAR(log_gamma(300.0), std::lgamma(300.0), 1e-8);
}

TEST(LogGamma, ReflectionBelowHalf) {
  EXPECT_NEAR(log_gamma(0.25), std::lgamma(0.25), 1e-12);
  EXPECT_NEAR(log_gamma(0.01), std::lgamma(0.01), 1e-10);
}

TEST(LogGamma, RejectsNonPositive) {
  EXPECT_THROW(log_gamma(0.0), std::domain_error);
  EXPECT_THROW(log_gamma(-1.0), std::domain_error);
}

TEST(GammaPQ, Complementarity) {
  for (double a : {0.5, 1.0, 3.0, 10.0, 45.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0, 80.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(GammaPQ, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^{-x}.
  for (double x : {0.01, 0.5, 2.0, 10.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-13);
  }
}

TEST(GammaPQ, Boundaries) {
  EXPECT_DOUBLE_EQ(gamma_p(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_q(3.0, 0.0), 1.0);
  EXPECT_THROW(gamma_p(0.0, 1.0), std::domain_error);
  EXPECT_THROW(gamma_q(2.0, -1.0), std::domain_error);
}

TEST(Erlang, CcdfEqualsPoissonSum) {
  // P(Erlang(k, rate) > x) = e^{-rate x} sum_{i<k} (rate x)^i / i!.
  const int k = 7;
  const double rate = 2.5;
  for (double x : {0.1, 1.0, 3.0, 8.0}) {
    double sum = 0.0;
    double term = std::exp(-rate * x);
    for (int i = 0; i < k; ++i) {
      sum += term;
      term *= rate * x / static_cast<double>(i + 1);
    }
    EXPECT_NEAR(erlang_ccdf(k, rate, x), sum, 1e-12) << "x=" << x;
  }
}

TEST(Erlang, CdfCcdfComplement) {
  EXPECT_NEAR(erlang_cdf(4, 1.0, 3.0) + erlang_ccdf(4, 1.0, 3.0), 1.0,
              1e-12);
}

TEST(Erlang, PdfIntegratesToCdfNumerically) {
  // Midpoint Riemann check of d/dx cdf = pdf.
  const int k = 5;
  const double rate = 3.0;
  const double x = 1.4;
  const double h = 1e-6;
  const double numeric =
      (erlang_cdf(k, rate, x + h) - erlang_cdf(k, rate, x - h)) / (2 * h);
  EXPECT_NEAR(numeric, erlang_pdf(k, rate, x), 1e-6);
}

TEST(Erlang, GuardsDomain) {
  EXPECT_THROW(erlang_ccdf(0, 1.0, 1.0), std::domain_error);
  EXPECT_THROW(erlang_pdf(2, 0.0, 1.0), std::domain_error);
  EXPECT_DOUBLE_EQ(erlang_ccdf(2, 1.0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(erlang_pdf(2, 1.0, -1.0), 0.0);
}

TEST(Poisson, PmfSumsMatchIncompleteGamma) {
  // P(Poisson(mu) <= n) = Q(n + 1, mu).
  const double mu = 4.2;
  for (std::int64_t N : {0, 1, 5, 12}) {
    double sum = 0.0;
    for (std::int64_t i = 0; i <= N; ++i) {
      sum += poisson_pmf(i, mu);
    }
    EXPECT_NEAR(sum, gamma_q(static_cast<double>(N) + 1.0, mu), 1e-12)
        << "n=" << N;
  }
}

TEST(Binomial, LogBinomialMatchesSmallCases) {
  EXPECT_NEAR(std::exp(log_binomial(5, 2)), 10.0, 1e-10);
  EXPECT_NEAR(std::exp(log_binomial(10, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(log_binomial(52, 5)), 2598960.0, 1e-4);
  EXPECT_THROW(log_binomial(3, 4), std::domain_error);
}

TEST(Binomial, SfAgainstEnumeration) {
  const std::int64_t n = 12;
  const double p = 0.3;
  for (std::int64_t k = 0; k <= n + 1; ++k) {
    double direct = 0.0;
    for (std::int64_t i = k; i <= n; ++i) {
      direct += std::exp(log_binomial(n, i)) * std::pow(p, double(i)) *
                std::pow(1 - p, double(n - i));
    }
    EXPECT_NEAR(binomial_sf(n, p, k), direct, 1e-12) << "k=" << k;
  }
}

TEST(Binomial, SfEdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_sf(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_sf(10, 0.5, 11), 0.0);
  EXPECT_DOUBLE_EQ(binomial_sf(10, 0.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(binomial_sf(10, 1.0, 10), 1.0);
  EXPECT_THROW(binomial_sf(10, -0.1, 1), std::domain_error);
}

TEST(Binomial, DeepTailStaysPositive) {
  // Far tail should be tiny but nonzero and finite.
  const double v = binomial_sf(1000, 0.01, 60);
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1e-20);
}

// Parameterized complementarity sweep across shapes.
class GammaSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GammaSweep, PIsMonotoneInX) {
  const auto [a, x] = GetParam();
  EXPECT_LE(gamma_p(a, x), gamma_p(a, x * 1.5) + 1e-15);
  EXPECT_GE(gamma_p(a, x), 0.0);
  EXPECT_LE(gamma_p(a, x), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GammaSweep,
    ::testing::Combine(::testing::Values(0.3, 1.0, 2.5, 9.0, 28.0, 120.0),
                       ::testing::Values(0.05, 0.8, 3.0, 25.0, 150.0)));

}  // namespace
}  // namespace fpsq::math
