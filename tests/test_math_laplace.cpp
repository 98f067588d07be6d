#include "reference/laplace.h"

#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "math/special.h"
#include "queueing/giek1.h"
#include "reference/convolution.h"

namespace fpsq::math {
namespace {

using Cx = std::complex<double>;

TEST(Laplace, InvertsExponentialDensityTransform) {
  // f_hat(u) = 1/(u + 1)  <->  f(t) = e^{-t}.
  auto f_hat = [](Cx u) { return 1.0 / (u + 1.0); };
  for (double t : {0.2, 1.0, 3.0}) {
    EXPECT_NEAR(invert_laplace_euler(f_hat, t), std::exp(-t), 1e-8)
        << "t=" << t;
  }
}

TEST(Laplace, InvertsRampTransform) {
  // f_hat(u) = 1/u^2 <-> f(t) = t.
  auto f_hat = [](Cx u) { return 1.0 / (u * u); };
  for (double t : {0.5, 2.0, 7.0}) {
    EXPECT_NEAR(invert_laplace_euler(f_hat, t), t, 1e-7 * (1.0 + t));
  }
}

TEST(Laplace, TailFromMgfMatchesErlangCcdf) {
  const int k = 7;
  const double rate = 2.0;
  auto mgf = [k, rate](Cx s) {
    return std::pow(Cx{rate, 0.0} / (Cx{rate, 0.0} - s), k);
  };
  for (double x : {0.5, 2.0, 5.0, 9.0}) {
    EXPECT_NEAR(tail_from_mgf(mgf, x), erlang_ccdf(k, rate, x),
                1e-7 + 1e-6 * erlang_ccdf(k, rate, x))
        << "x=" << x;
  }
}

TEST(Laplace, CrossValidatesDEk1Tail) {
  // Independent check of the transform solution of Section 3.2.1.
  const queueing::GiEk1Solver q{9, 0.6,
                                queueing::deterministic_arrivals(1.0)};
  auto mgf = [&q](Cx s) { return q.waiting_mgf().value(s); };
  for (double x : {0.2, 0.8, 1.6}) {
    const double inv = tail_from_mgf(mgf, x);
    EXPECT_NEAR(inv, q.wait_tail(x), 1e-6 + 1e-4 * q.wait_tail(x))
        << "x=" << x;
  }
}

TEST(Laplace, CrossValidatesStableConvolutionAtLargeK) {
  // The ill-conditioned regime (K = 20, rho = 0.3): the stable
  // convolution path must agree with numerical transform inversion of
  // the factored MGF (which never expands the partial fractions).
  const int k = 20;
  const queueing::GiEk1Solver w{k, 0.3,
                                queueing::deterministic_arrivals(1.0)};
  const auto y = queueing::position_delay_uniform_mixture(k, w.beta());
  auto mgf = [&](Cx s) { return w.waiting_mgf().value(s) * y.mgf(s); };
  for (double x : {0.2, 0.4, 0.7}) {
    const double inv = tail_from_mgf(mgf, x);
    const double conv = queueing::convolved_tail(w.waiting_mgf(), y, x);
    EXPECT_NEAR(conv, inv, 1e-6 + 1e-3 * std::abs(inv)) << "x=" << x;
  }
}

TEST(Laplace, Guards) {
  auto f_hat = [](Cx u) { return 1.0 / u; };
  EXPECT_THROW(invert_laplace_euler(f_hat, 0.0), std::invalid_argument);
  EXPECT_THROW(invert_laplace_euler(f_hat, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(invert_laplace_euler(f_hat, 1.0, 100),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::math
