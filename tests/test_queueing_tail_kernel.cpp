#include "queueing/tail_kernel.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "err/error.h"
#include "math/special.h"
#include "queueing/giek1.h"
#include "queueing/position_delay.h"
#include "reference/convolution.h"

namespace fpsq::queueing {
namespace {

// The paper's operating range: burst sizes K in {2, 9, 20} crossed with
// downstream loads from nearly idle to nearly saturated. K = 20 at low
// load is the pole-clash regime where the D/E_K/1 poles take the series
// form.
const int kBurstSizes[] = {2, 9, 20};
const double kLoads[] = {0.05, 0.3, 0.5, 0.7, 0.95};

std::vector<double> probe_points(double mean) {
  return {1e-3 * mean, 0.1 * mean, 0.5 * mean, mean,
          2.0 * mean,  4.0 * mean, 8.0 * mean};
}

TEST(TailKernel, MatchesErlangMixMgfTailAndDensity) {
  for (int k : kBurstSizes) {
    for (double rho : kLoads) {
      const GiEk1Solver w{k, rho, deterministic_arrivals(1.0)};
      if (w.degenerate()) continue;
      const ErlangMixMgf& v = w.waiting_mgf();
      const TailKernel kern{v};
      EXPECT_TRUE(kern.closed_form());
      EXPECT_NEAR(kern.atom(), v.constant_term(), 1e-12);
      EXPECT_NEAR(kern.mean(), v.mean(), 1e-10 * (1.0 + v.mean()));
      for (double x : probe_points(1.0)) {
        EXPECT_NEAR(kern.tail(x), v.tail(x), 1e-9)
            << "K=" << k << " rho=" << rho << " x=" << x;
        EXPECT_NEAR(kern.density(x), v.density(x),
                    1e-9 * (1.0 + std::abs(v.density(x))))
            << "K=" << k << " rho=" << rho << " x=" << x;
      }
      EXPECT_NEAR(kern.tail(0.0), v.tail(0.0), 1e-12);
      EXPECT_NEAR(kern.tail(-1.0), v.tail(-1.0), 1e-12);
    }
  }
}

TEST(TailKernel, MatchesErlangMixtureTail) {
  for (int k : {2, 9, 20, 64, 512}) {
    const auto y = position_delay_uniform_mixture(k, 2.0 * k);
    const TailKernel kern{y};
    EXPECT_TRUE(kern.closed_form());
    EXPECT_NEAR(kern.atom(), 0.0, 1e-15);
    for (double x : probe_points(y.mean())) {
      EXPECT_NEAR(kern.tail(x), y.tail(x), 1e-12) << "K=" << k << " x=" << x;
      EXPECT_NEAR(kern.density(x), y.density(x),
                  1e-12 * (1.0 + y.density(x)))
          << "K=" << k << " x=" << x;
    }
  }
  // Eq. (32): the fixed-position delay is Erlang(K, beta / theta).
  for (int k : {1, 6, 64, 512}) {
    for (double theta : {1.0, 0.5}) {
      const double beta = 3.0;
      const auto y = position_delay_fixed(k, beta, theta);
      const TailKernel kern{y};
      for (double x : probe_points(y.mean())) {
        EXPECT_NEAR(kern.tail(x), math::erlang_ccdf(k, beta / theta, x),
                    1e-12)
            << "K=" << k << " theta=" << theta << " x=" << x;
      }
    }
  }
}

TEST(TailKernel, ConvolvedMatchesQuadratureOracle) {
  // Kernel vs the adaptive-quadrature reference across a grid that puts
  // poles on both sides of the closed/series switch, including the
  // corners where an expanded partial-fraction product loses 1e-9.
  for (int k : {2, 9, 12, 16, 20, 32, 64}) {
    for (double rho : {0.05, 0.3, 0.5, 0.6, 0.7, 0.85, 0.95}) {
      const GiEk1Solver w{k, rho, deterministic_arrivals(1.0)};
      if (w.degenerate()) continue;
      const auto y = position_delay_uniform_mixture(k, w.beta());
      const TailKernel kern{w.waiting_mgf(), y};
      const double mean = kern.mean();
      for (double x : probe_points(mean)) {
        const double oracle = convolved_tail(w.waiting_mgf(), y, x);
        EXPECT_NEAR(kern.tail(x), oracle, 1e-9)
            << "K=" << k << " rho=" << rho << " x=" << x
            << " closed_form=" << kern.closed_form();
      }
      EXPECT_NEAR(kern.tail(0.0), 1.0, 1e-12);
      EXPECT_NEAR(kern.mean(), convolved_mean(w.waiting_mgf(), y),
                  1e-9 * (1.0 + mean));
    }
  }
}

TEST(TailKernel, PoleClashRegimeTakesSeriesAndStaysAccurate) {
  // K = 20 at rho_d = 0.3: expanded partial fractions blow up to ~1e24
  // with catastrophic cancellation, so the poles must take the series
  // form and still match the adaptive oracle.
  const int k = 20;
  const GiEk1Solver w{k, 0.3, deterministic_arrivals(1.0)};
  ASSERT_FALSE(w.degenerate());
  const auto y = position_delay_uniform_mixture(k, w.beta());
  const TailKernel kern{w.waiting_mgf(), y};
  EXPECT_FALSE(kern.closed_form());
  double prev = 1.0 + 1e-12;
  for (double x = 0.05; x <= 2.0; x += 0.05) {
    const double oracle = convolved_tail(w.waiting_mgf(), y, x);
    EXPECT_NEAR(kern.tail(x), oracle, 1e-9) << "x=" << x;
    EXPECT_LE(kern.tail(x), prev + 1e-9) << "x=" << x;
    prev = kern.tail(x);
  }
}

TEST(TailKernel, QuantileRoundTripsThroughTail) {
  for (int k : kBurstSizes) {
    for (double rho : kLoads) {
      const GiEk1Solver w{k, rho, deterministic_arrivals(1.0)};
      if (w.degenerate()) continue;
      const auto y = position_delay_uniform_mixture(k, w.beta());
      const TailKernel kern{w.waiting_mgf(), y};
      for (double eps : {0.5, 1e-2, 1e-5, 1e-9}) {
        const double q = kern.quantile(eps);
        EXPECT_NEAR(kern.tail(q), eps, 2e-3 * eps)
            << "K=" << k << " rho=" << rho << " eps=" << eps;
      }
    }
  }
}

TEST(TailKernel, QuantileRoundTripsOnSeriesPath) {
  const GiEk1Solver w{20, 0.3, deterministic_arrivals(1.0)};
  const auto y = position_delay_uniform_mixture(20, w.beta());
  const TailKernel kern{w.waiting_mgf(), y};
  ASSERT_FALSE(kern.closed_form());
  for (double eps : {0.5, 1e-2, 1e-5}) {
    const double q = kern.quantile(eps);
    EXPECT_NEAR(kern.tail(q), eps, 2e-3 * eps) << "eps=" << eps;
  }
}

TEST(TailKernel, QuantileValidatesEpsilonAndHandlesAtom) {
  const auto v = ErlangMixMgf::atom_plus_exponential(0.99, {1.0, 0.0});
  const TailKernel kern{v};
  EXPECT_THROW(kern.quantile(0.0), std::invalid_argument);
  EXPECT_THROW(kern.quantile(1.0), std::invalid_argument);
  // tail(0) = 0.01 <= eps: quantile collapses to (numerically) zero.
  EXPECT_EQ(kern.quantile(0.5), 0.0);
  EXPECT_NEAR(kern.quantile(0.01), 0.0, 1e-12);
  EXPECT_GT(kern.quantile(1e-4), 0.0);
}

}  // namespace
}  // namespace fpsq::queueing
