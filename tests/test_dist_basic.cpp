#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist.h"
#include "reference/quadrature.h"

namespace fpsq::dist {
namespace {

/// Factory list of continuous distributions for property sweeps.
std::vector<std::shared_ptr<Distribution>> continuous_laws() {
  return {
      std::make_shared<Uniform>(2.0, 7.0),
      std::make_shared<Exponential>(0.8),
      std::make_shared<Erlang>(5, 2.0),
      std::make_shared<Gamma>(3.7, 1.4),
      std::make_shared<Normal>(10.0, 2.5),
      std::make_shared<Lognormal>(1.0, 0.4),
      std::make_shared<Extreme>(55.0, 6.0),
      std::make_shared<Mixture>(std::vector<Mixture::Component>{
          {0.85, std::make_shared<Erlang>(40, 40.0 / 1852.0)},
          {0.15, std::make_shared<Erlang>(10, 10.0 / 1852.0)}}),
  };
}

class ContinuousLaw
    : public ::testing::TestWithParam<std::shared_ptr<Distribution>> {};

TEST_P(ContinuousLaw, QuantileInvertsCdf) {
  const auto& d = *GetParam();
  for (double p : {0.01, 0.1, 0.5, 0.9, 0.999}) {
    const double q = d.quantile(p);
    EXPECT_NEAR(d.cdf(q), p, 1e-7) << d.name() << " p=" << p;
  }
}

TEST_P(ContinuousLaw, CcdfComplementsCdf) {
  const auto& d = *GetParam();
  const double x = d.quantile(0.7);
  EXPECT_NEAR(d.cdf(x) + d.ccdf(x), 1.0, 1e-10) << d.name();
}

TEST_P(ContinuousLaw, PdfIsDerivativeOfCdf) {
  const auto& d = *GetParam();
  for (double p : {0.2, 0.5, 0.8}) {
    const double x = d.quantile(p);
    const double h = 1e-6 * (1.0 + std::abs(x));
    const double numeric = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, d.pdf(x), 1e-4 * (1.0 + d.pdf(x)))
        << d.name() << " p=" << p;
  }
}

TEST_P(ContinuousLaw, MeanMatchesTailIntegral) {
  // For laws with support bounded below at L:
  // E[X] = L + int_L^inf ccdf(x) dx (here L can be negative: integrate
  // from a far-left quantile instead).
  const auto& d = *GetParam();
  const double lo = d.quantile(1e-9);
  const double hi = d.quantile(1.0 - 1e-9);
  // E[X] = lo + int_lo^hi ccdf + (negligible tail above hi).
  const double tail_int = math::integrate(
      [&d](double x) { return d.ccdf(x); }, lo, hi, 1e-10);
  EXPECT_NEAR(lo + tail_int, d.mean(),
              2e-3 * (1.0 + std::abs(d.mean())))
      << d.name();
}

TEST_P(ContinuousLaw, VarianceMatchesNumericIntegral) {
  const auto& d = *GetParam();
  const double lo = d.quantile(1e-10);
  const double hi = d.quantile(1.0 - 1e-10);
  const double m = d.mean();
  const double var = math::integrate(
      [&d, m](double x) { return (x - m) * (x - m) * d.pdf(x); }, lo, hi,
      1e-11);
  EXPECT_NEAR(var, d.variance(), 5e-3 * (1.0 + d.variance())) << d.name();
}

TEST_P(ContinuousLaw, CloneBehavesIdentically) {
  const auto& d = *GetParam();
  const auto c = d.clone();
  const double x = d.quantile(0.42);
  EXPECT_DOUBLE_EQ(c->cdf(x), d.cdf(x));
  EXPECT_EQ(c->name(), d.name());
}

INSTANTIATE_TEST_SUITE_P(AllLaws, ContinuousLaw,
                         ::testing::ValuesIn(continuous_laws()));

TEST(Deterministic, PointMassBehaviour) {
  const Deterministic d{40.0};
  EXPECT_DOUBLE_EQ(d.cdf(39.999), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(40.0), 1.0);
  EXPECT_DOUBLE_EQ(d.ccdf(40.0), 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 40.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 40.0);
  Rng rng{1};
  EXPECT_DOUBLE_EQ(d.sample(rng), 40.0);
  EXPECT_EQ(d.name(), "Det(40)");
}

TEST(Extreme, MatchesPaperEquationOne) {
  // F(x) = exp(-exp(-(x-a)/b)) with a = 55, b = 6 (Table 1 burst IAT).
  const Extreme e{55.0, 6.0};
  for (double x : {40.0, 55.0, 70.0}) {
    EXPECT_NEAR(e.cdf(x), std::exp(-std::exp(-(x - 55.0) / 6.0)), 1e-14);
  }
  // Mean = a + gamma_E b; CoV from pi b / sqrt(6).
  EXPECT_NEAR(e.mean(), 55.0 + 0.5772156649 * 6.0, 1e-8);
  EXPECT_NEAR(e.stddev(), M_PI * 6.0 / std::sqrt(6.0), 1e-10);
}

TEST(Erlang, CovIsOneOverSqrtK) {
  for (int k : {1, 9, 20, 28}) {
    const Erlang e = Erlang::from_mean(k, 1852.0);
    EXPECT_NEAR(e.cov(), 1.0 / std::sqrt(static_cast<double>(k)), 1e-12);
    EXPECT_NEAR(e.mean(), 1852.0, 1e-9);
  }
}

TEST(Extreme, FromMeanStddevRoundTrip) {
  const Extreme e = Extreme::from_mean_stddev(62.0, 62.0 * 0.5);
  EXPECT_NEAR(e.mean(), 62.0, 1e-9);
  EXPECT_NEAR(e.cov(), 0.5, 1e-9);
}

TEST(Lognormal, FromMeanCovRoundTrip) {
  const auto l = Lognormal::from_mean_cov(127.0, 0.74);
  EXPECT_NEAR(l.mean(), 127.0, 1e-9);
  EXPECT_NEAR(l.cov(), 0.74, 1e-9);
}

TEST(Mixture, MomentsMatchComponents) {
  // Same-mean mixture: CoV^2 = sum w_i / K_i for Erlang components.
  const Mixture m{std::vector<Mixture::Component>{
      {0.85, std::make_shared<Erlang>(Erlang::from_mean(40, 1852.0))},
      {0.15, std::make_shared<Erlang>(Erlang::from_mean(10, 1852.0))}}};
  EXPECT_NEAR(m.mean(), 1852.0, 1e-9);
  EXPECT_NEAR(m.cov(), std::sqrt(0.85 / 40.0 + 0.15 / 10.0), 1e-10);
}

TEST(Mixture, RejectsBadWeights) {
  EXPECT_THROW(Mixture{std::vector<Mixture::Component>{}},
               std::invalid_argument);
  EXPECT_THROW(
      (Mixture{std::vector<Mixture::Component>{
          {-1.0, std::make_shared<Exponential>(1.0)}}}),
      std::invalid_argument);
}

TEST(Constructors, RejectInvalidParameters) {
  EXPECT_THROW(Uniform(3.0, 3.0), std::invalid_argument);
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Erlang(0, 1.0), std::invalid_argument);
  EXPECT_THROW(Gamma(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Normal(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Lognormal(0.0, -0.1), std::invalid_argument);
  EXPECT_THROW(Extreme(0.0, 0.0), std::invalid_argument);
}

TEST(Quantile, RejectsOutOfRangeProbability) {
  const Exponential e{1.0};
  EXPECT_THROW(e.quantile(0.0), std::domain_error);
  EXPECT_THROW(e.quantile(1.0), std::domain_error);
}

}  // namespace
}  // namespace fpsq::dist
