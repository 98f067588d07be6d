#include "reference/chernoff.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"

namespace fpsq::queueing {
namespace {

using testutil::hypoexponential;

/// Chernoff bound of an Erlang-mix law through the functional form:
/// its real MGF and the dominant pole as the abscissa of convergence.
double chernoff_tail_of(const ErlangMixMgf& f, double x) {
  return chernoff_tail_fn([&f](double s) { return f.value_real(s); },
                          f.dominant_pole().real(), x);
}

double chernoff_quantile_of(const ErlangMixMgf& f, double epsilon) {
  return chernoff_quantile_fn([&f](double s) { return f.value_real(s); },
                              f.dominant_pole().real(), epsilon);
}

TEST(Chernoff, UpperBoundsExactHypoexponentialTail) {
  const auto f = hypoexponential({2.0, 2.5, 3.0, 3.5, 4.0});
  for (double x : {1.0, 3.0, 6.0, 10.0}) {
    const double exact = f.tail(x);
    const double bound = chernoff_tail_of(f, x);
    EXPECT_GE(bound, exact) << "x=" << x;
    // Chernoff is exponentially tight: log-ratio stays moderate.
    EXPECT_LT(std::log(bound / exact), 4.0) << "x=" << x;
  }
}

TEST(Chernoff, QuantileIsConservative) {
  const auto f =
      hypoexponential({3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0});
  for (double eps : {1e-2, 1e-5}) {
    EXPECT_GE(chernoff_quantile_of(f, eps), f.quantile(eps)) << eps;
  }
}

TEST(Chernoff, TrivialBoundAtZero) {
  const auto f = hypoexponential({1.0, 1.5});
  EXPECT_DOUBLE_EQ(chernoff_tail_of(f, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(chernoff_tail_of(f, -1.0), 1.0);
}

TEST(Chernoff, Guards) {
  const auto f = hypoexponential({1.0, 1.5});
  EXPECT_THROW(chernoff_quantile_of(f, 0.0), std::invalid_argument);
  EXPECT_THROW(chernoff_tail_fn([](double) { return 1.0; }, 0.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
