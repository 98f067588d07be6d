#include "reference/convolution.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dist/erlang.h"
#include "queueing/giek1.h"
#include "queueing/tail_kernel.h"
#include "reference/chernoff.h"
#include "test_util.h"

namespace fpsq::queueing {
namespace {

TEST(Convolution, DegenerateVIsJustTheMixture) {
  const ErlangMixMgf unit;  // point mass at zero
  const ErlangMixture y{3.0, {0.5, 0.5}};
  for (double x : {0.1, 1.0, 3.0}) {
    EXPECT_NEAR(convolved_tail(unit, y, x), y.tail(x), 1e-12);
  }
  EXPECT_NEAR(convolved_mean(unit, y), y.mean(), 1e-12);
}

TEST(Convolution, MatchesPartialFractionsWhenWellConditioned) {
  // Small K, well-separated poles: the quadrature and the per-pole
  // partial-fraction kernel must agree.
  const auto v = ErlangMixMgf::atom_plus_exponential(0.6, {1.0, 0.0});
  const ErlangMixture y{8.0, {0.25, 0.25, 0.25, 0.25}};
  const TailKernel product{v, y};
  ASSERT_TRUE(product.closed_form());
  for (double x : {0.05, 0.3, 1.0, 3.0, 8.0}) {
    EXPECT_NEAR(convolved_tail(v, y, x), product.tail(x),
                1e-8 * (1.0 + product.tail(x)))
        << "x=" << x;
  }
  EXPECT_NEAR(convolved_mean(v, y), product.mean(), 1e-10);
}

TEST(Convolution, MatchesMonteCarlo) {
  // V = atom 0.4 + Exp(2) w.p. 0.6; Y = Erlang mixture.
  const auto v = ErlangMixMgf::atom_plus_exponential(0.4, {2.0, 0.0});
  const ErlangMixture y{5.0, {0.2, 0.3, 0.5}};
  dist::Rng rng{4242};
  stats::Empirical emp;
  for (int i = 0; i < 500000; ++i) {
    double s = rng.uniform01() < 0.4 ? 0.0 : rng.exponential(2.0);
    const double u = rng.uniform01();
    const int j = u < 0.2 ? 1 : (u < 0.5 ? 2 : 3);
    for (int l = 0; l < j; ++l) s += rng.exponential(5.0);
    emp.add(s);
  }
  for (double x : {0.2, 0.8, 2.0}) {
    EXPECT_NEAR(convolved_tail(v, y, x), emp.tdf(x),
                0.03 * emp.tdf(x) + 5e-4)
        << "x=" << x;
  }
}

TEST(Convolution, StableInIllConditionedRegime) {
  // The K = 20, rho_d = 0.3 configuration that breaks the expanded
  // eq. (35): here the convolution route must stay monotone, bounded,
  // and below the Chernoff bound computed from the factored MGF.
  const int k = 20;
  const GiEk1Solver w{k, 0.3, deterministic_arrivals(1.0)};
  ASSERT_FALSE(w.degenerate());
  const auto y = position_delay_uniform_mixture(k, w.beta());
  double prev = 1.0 + 1e-12;
  for (double x = 0.0; x <= 2.0; x += 0.05) {
    const double t = convolved_tail(w.waiting_mgf(), y, x);
    EXPECT_GE(t, -1e-10) << "x=" << x;
    EXPECT_LE(t, prev + 1e-9) << "x=" << x;
    prev = t;
    // Chernoff upper bound from factored values.
    if (x > 0.0) {
      const double bound = chernoff_tail_fn(
          [&w, &y](double s) {
            return (w.waiting_mgf().value(Complex{s, 0.0}) *
                    y.mgf(Complex{s, 0.0}))
                .real();
          },
          std::min(w.waiting_mgf().dominant_pole().real(), y.beta()), x);
      EXPECT_LE(t, bound * (1.0 + 1e-9)) << "x=" << x;
    }
  }
}

TEST(Convolution, AgainstLindleyPlusPositionMonteCarlo) {
  // Full downstream law: W (D/E_K/1) + uniform position delay, vs brute
  // force simulation of the same system.
  const int k = 9;
  const double rho = 0.6;
  const GiEk1Solver w{k, rho, deterministic_arrivals(1.0)};
  const auto y = position_delay_uniform_mixture(k, w.beta());
  dist::Rng rng{99};
  stats::Empirical emp;
  double wait = 0.0;
  const dist::Erlang burst = dist::Erlang::from_mean(k, rho);
  for (int i = 0; i < 600000; ++i) {
    const double b = burst.sample(rng);
    if (i > 1000) {
      emp.add(wait + rng.uniform01() * b);
    }
    wait = std::max(0.0, wait + b - 1.0);
  }
  for (double p : {0.9, 0.99, 0.999}) {
    const double model = [&] {
      // quantile of the convolved law
      double lo = 0.0, hi = 5.0;
      for (int it = 0; it < 80; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (convolved_tail(w.waiting_mgf(), y, mid) > 1.0 - p) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return 0.5 * (lo + hi);
    }();
    EXPECT_NEAR(model, emp.quantile(p), 0.08 * emp.quantile(p))
        << "p=" << p;
  }
}

TEST(Convolution, QuantileInvertsTail) {
  const auto v = ErlangMixMgf::atom_plus_exponential(0.3, {1.5, 0.0});
  const ErlangMixture y{4.0, {0.5, 0.5}};
  for (double eps : {0.2, 1e-2, 1e-4}) {
    const double q = convolved_quantile(v, y, eps);
    EXPECT_NEAR(convolved_tail(v, y, q), eps, 2e-3 * eps) << eps;
  }
  EXPECT_THROW(convolved_quantile(v, y, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
