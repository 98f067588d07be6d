#include "queueing/position_delay.h"

#include <cmath>

#include <gtest/gtest.h>

#include "math/special.h"
#include "reference/convolution.h"
#include "test_util.h"

namespace fpsq::queueing {
namespace {

TEST(PositionDelay, FixedPositionIsScaledErlang) {
  // theta = 1: the whole burst ahead — Erlang(K, beta) itself.
  const auto f = position_delay_fixed(6, 3.0, 1.0);
  for (double x : {0.5, 2.0, 5.0}) {
    EXPECT_NEAR(f.tail(x), math::erlang_ccdf(6, 3.0, x), 1e-12);
  }
  // theta = 0.5: Erlang(K, 2 beta) — half the burst.
  const auto h = position_delay_fixed(6, 3.0, 0.5);
  EXPECT_NEAR(h.mean(), 0.5 * 6.0 / 3.0, 1e-12);
}

TEST(PositionDelay, UniformMgfMatchesEq30Integral) {
  // Eq. (34)'s closed form must equal the direct integral of eq. (30).
  for (int k : {2, 5, 9, 20}) {
    const double beta = 4.0;
    const auto p = position_delay_uniform_mixture(k, beta);
    for (double s : {-5.0, -1.0, 0.5, 2.0}) {
      const double numeric =
          position_delay_uniform_mgf_numeric(k, beta, s);
      EXPECT_NEAR(p.mgf(Complex{s, 0.0}).real(), numeric,
                  1e-8 * (1.0 + std::abs(numeric)))
          << "k=" << k << " s=" << s;
    }
  }
}

TEST(PositionDelay, MeanIsHalfBurstForLargeK) {
  // E[U B] = E[U] E[B] = K/(2 beta); the mixture mean (1/(K-1)) sum j/beta
  // = K/(2 beta) exactly.
  for (int k : {2, 9, 40}) {
    const double beta = 3.0;
    const auto p = position_delay_uniform_mixture(k, beta);
    EXPECT_NEAR(p.mean(), 0.5 * k / beta, 1e-12) << "k=" << k;
  }
}

TEST(PositionDelay, MatchesMonteCarlo) {
  // Sample U * B directly and compare tails.
  const int k = 9;
  const double beta = 9.0 / 0.018;  // paper-like scale
  const auto p = position_delay_uniform_mixture(k, beta);
  dist::Rng rng{11};
  stats::Empirical emp;
  for (int i = 0; i < 400000; ++i) {
    double b = 0.0;
    for (int j = 0; j < k; ++j) b += rng.exponential(beta);
    emp.add(rng.uniform01() * b);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(p.quantile(1.0 - q), emp.quantile(q),
                0.05 * emp.quantile(q))
        << "q=" << q;
  }
}

TEST(PositionDelay, Guards) {
  EXPECT_THROW(position_delay_uniform_mixture(1, 2.0),
               std::invalid_argument);
  EXPECT_THROW(position_delay_uniform_mixture(5, 0.0),
               std::invalid_argument);
  EXPECT_THROW(position_delay_fixed(2, 2.0, 0.0), std::invalid_argument);
  EXPECT_THROW(position_delay_fixed(2, 2.0, 1.5), std::invalid_argument);
  EXPECT_THROW(position_delay_uniform_mgf_numeric(2, 2.0, 3.0),
               std::invalid_argument);
  EXPECT_THROW((ErlangMixture{2.0, {0.5, 0.4}}), std::invalid_argument);
  EXPECT_THROW((ErlangMixture{2.0, {1.5, -0.5}}), std::invalid_argument);
}

TEST(ErlangMixtureClass, DensityIntegratesToTailDifference) {
  const ErlangMixture m{3.0, {0.25, 0.25, 0.25, 0.25}};
  // Numeric check: tail(a) - tail(b) = int_a^b density.
  const double a = 0.3, b = 1.7;
  const int n = 20000;
  double integral = 0.0;
  for (int i = 0; i < n; ++i) {
    integral += m.density(a + (i + 0.5) * (b - a) / n) * (b - a) / n;
  }
  EXPECT_NEAR(m.tail(a) - m.tail(b), integral, 1e-6);
}

TEST(ErlangMixtureClass, DeepTailUsesStableBranch) {
  const ErlangMixture m{1.0, {0.5, 0.5}};
  const double t = m.tail(800.0);  // beyond the exp underflow knee
  EXPECT_GE(t, 0.0);
  EXPECT_LT(t, 1e-300);
}

}  // namespace
}  // namespace fpsq::queueing
