#include "queueing/chernoff.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"

namespace fpsq::queueing {
namespace {

using testutil::hypoexponential;

TEST(Chernoff, UpperBoundsExactHypoexponentialTail) {
  const auto f = hypoexponential({2.0, 2.5, 3.0, 3.5, 4.0});
  for (double x : {1.0, 3.0, 6.0, 10.0}) {
    const double exact = f.tail(x);
    const double bound = chernoff_tail(f, x);
    EXPECT_GE(bound, exact) << "x=" << x;
    // Chernoff is exponentially tight: log-ratio stays moderate.
    EXPECT_LT(std::log(bound / exact), 4.0) << "x=" << x;
  }
}

TEST(Chernoff, QuantileIsConservative) {
  const auto f =
      hypoexponential({3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0});
  for (double eps : {1e-2, 1e-5}) {
    EXPECT_GE(chernoff_quantile(f, eps), f.quantile(eps)) << eps;
  }
}

TEST(Chernoff, FunctionalAndMgfFormsAgree) {
  const auto f = hypoexponential({1.5, 2.0, 2.5, 3.0});
  for (double x : {0.5, 2.0, 8.0}) {
    const double a = chernoff_tail(f, x);
    const double b = chernoff_tail_fn(
        [&f](double s) { return f.value_real(s); },
        f.dominant_pole().real(), x);
    EXPECT_NEAR(a, b, 1e-10 * (1.0 + a)) << "x=" << x;
  }
}

TEST(Chernoff, PointMassHasZeroTail) {
  const ErlangMixMgf unit;
  EXPECT_DOUBLE_EQ(chernoff_tail(unit, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(chernoff_quantile(unit, 1e-5), 0.0);
}

TEST(Chernoff, TrivialBoundAtZero) {
  const auto f = hypoexponential({1.0, 1.5});
  EXPECT_DOUBLE_EQ(chernoff_tail(f, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(chernoff_tail(f, -1.0), 1.0);
}

TEST(Chernoff, Guards) {
  const auto f = hypoexponential({1.0, 1.5});
  EXPECT_THROW(chernoff_quantile(f, 0.0), std::invalid_argument);
  EXPECT_THROW(chernoff_tail_fn([](double) { return 1.0; }, 0.0, 1.0),
               std::invalid_argument);
}

TEST(SumOfQuantiles, UpperBoundsJointQuantile) {
  // For independent delays, sum-of-quantiles >= quantile-of-sum.
  const auto a = hypoexponential({2.0, 2.5, 3.0});
  const auto b = hypoexponential({5.0, 6.0});
  const auto ab = multiply(a, b);
  const double eps = 1e-4;
  const double soq = sum_of_quantiles({&a, &b}, eps);
  EXPECT_GE(soq, ab.quantile(eps));
  EXPECT_THROW(sum_of_quantiles({}, eps), std::invalid_argument);
  EXPECT_THROW(sum_of_quantiles({nullptr}, eps), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
