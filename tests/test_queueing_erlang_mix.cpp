#include "queueing/erlang_mix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "math/special.h"
#include "test_util.h"

namespace fpsq::queueing {
namespace {

using testutil::hypoexponential;

ErlangMixMgf exponential(double theta) {
  return ErlangMixMgf::atom_plus_exponential(0.0, {theta, 0.0});
}

TEST(ErlangMixMgf, DefaultIsPointMassAtZero) {
  const ErlangMixMgf f;
  EXPECT_DOUBLE_EQ(f.constant_term(), 1.0);
  EXPECT_DOUBLE_EQ(f.total_mass(), 1.0);
  EXPECT_DOUBLE_EQ(f.tail(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.tail(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.mean(), 0.0);
}

TEST(ErlangMixMgf, AtomPlusExponential) {
  const auto f =
      ErlangMixMgf::atom_plus_exponential(0.3, Complex{4.0, 0.0});
  EXPECT_NEAR(f.total_mass(), 1.0, 1e-14);
  EXPECT_NEAR(f.tail(0.0), 0.7, 1e-14);
  EXPECT_NEAR(f.tail(1.0), 0.7 * std::exp(-4.0), 1e-14);
  EXPECT_NEAR(f.mean(), 0.7 / 4.0, 1e-13);
}

TEST(ErlangMixMgf, DensityMatchesErlangPdf) {
  // Exp(3) is Erlang(1, 3); Exp(2) + Exp(5) has the two-term density
  // (10/3) (e^{-2x} - e^{-5x}).
  const auto f = exponential(3.0);
  const auto g = multiply(exponential(2.0), exponential(5.0));
  for (double x : {0.2, 1.0, 2.0}) {
    EXPECT_NEAR(f.density(x), math::erlang_pdf(1, 3.0, x), 1e-12);
    EXPECT_NEAR(g.density(x),
                10.0 / 3.0 * (std::exp(-2.0 * x) - std::exp(-5.0 * x)),
                1e-12);
  }
  EXPECT_DOUBLE_EQ(f.density(0.0), 0.0);
}

TEST(ErlangMixMgf, ProductValueEqualsValueProduct) {
  const auto a = hypoexponential({2.0, 3.0, 4.5});
  const auto b = ErlangMixMgf::atom_plus_exponential(0.4, {5.0, 0.0});
  const auto ab = multiply(a, b);
  for (double s : {-3.0, -1.0, 0.0, 0.5, 1.5}) {
    EXPECT_NEAR(ab.value_real(s), a.value_real(s) * b.value_real(s),
                1e-10 * (1.0 + std::abs(ab.value_real(s))))
        << "s=" << s;
  }
  EXPECT_NEAR(ab.total_mass(), 1.0, 1e-12);
  EXPECT_NEAR(ab.mean(), a.mean() + b.mean(), 1e-12);
}

TEST(ErlangMixMgf, ProductOfExponentialsIsHypoexponential) {
  // X ~ Exp(2), Y ~ Exp(5): P(X+Y > x) has the classic two-term form.
  const auto ab = multiply(exponential(2.0), exponential(5.0));
  for (double x : {0.1, 0.5, 1.5, 3.0}) {
    const double expected =
        (5.0 * std::exp(-2.0 * x) - 2.0 * std::exp(-5.0 * x)) / 3.0;
    EXPECT_NEAR(ab.tail(x), expected, 1e-12) << "x=" << x;
  }
}

TEST(ErlangMixMgf, QuantileInvertsTail) {
  const auto f =
      hypoexponential({3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0});
  for (double eps : {0.1, 1e-3, 1e-5}) {
    const double q = f.quantile(eps);
    EXPECT_NEAR(f.tail(q), eps, 1e-3 * eps) << "eps=" << eps;
  }
}

TEST(ErlangMixMgf, QuantileOfAtomHeavyMassIsZero) {
  const auto f = ErlangMixMgf::atom_plus_exponential(0.9999, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(f.quantile(1e-3), 0.0);
}

TEST(ErlangMixMgf, DominantPole) {
  const ErlangMixMgf f{0.2,
                       {{Complex{1.0, 0.0}, Complex{0.5, 0.0}},
                        {Complex{10.0, 0.0}, Complex{0.3, 0.0}}}};
  EXPECT_DOUBLE_EQ(f.dominant_pole().real(), 1.0);
}

TEST(ErlangMixMgf, ConjugatePairGivesRealTail) {
  const Complex theta{2.0, 1.0};
  const Complex c{0.25, 0.1};
  ErlangMixMgf f{0.5, {{theta, c}, {std::conj(theta), std::conj(c)}}};
  for (double x : {0.1, 1.0, 3.0}) {
    const double t = f.tail(x);
    EXPECT_TRUE(std::isfinite(t));
    // Tail of conjugate pair: 2 Re[c e^{-theta x}].
    const double expected = 2.0 * (c * std::exp(-theta * x)).real();
    EXPECT_NEAR(t, expected, 1e-14);
  }
}

TEST(ErlangMixMgf, RejectsBadConstruction) {
  // Non-positive real part.
  EXPECT_THROW(
      (ErlangMixMgf{0.0, {{Complex{-1.0, 0.0}, Complex{1.0, 0.0}}}}),
      std::invalid_argument);
  // Duplicate pole.
  EXPECT_THROW((ErlangMixMgf{0.0,
                             {{Complex{1.0, 0.0}, Complex{1.0, 0.0}},
                              {Complex{1.0, 0.0}, Complex{1.0, 0.0}}}}),
               std::invalid_argument);
}

TEST(ErlangMixMgf, MultiplyRejectsSharedPole) {
  const auto a = hypoexponential({2.0, 3.0});
  const auto b = exponential(3.0);
  EXPECT_THROW(multiply(a, b), std::invalid_argument);
}

// Property sweep: mass and mean behave under repeated products.
class ProductChain : public ::testing::TestWithParam<int> {};

TEST_P(ProductChain, MassStaysOneMeanAdds) {
  const int n = GetParam();
  ErlangMixMgf acc;  // point mass at 0
  double mean = 0.0;
  for (int i = 1; i <= n; ++i) {
    const double theta = 1.0 + 1.7 * i;  // distinct poles
    acc = multiply(acc, exponential(theta));
    mean += 1.0 / theta;
  }
  EXPECT_NEAR(acc.total_mass(), 1.0, 1e-9);
  EXPECT_NEAR(acc.mean(), mean, 1e-9);
  // Tail decreasing in x.
  double prev = 1.1;
  for (double x = 0.0; x < 3.0; x += 0.25) {
    const double t = acc.tail(x);
    EXPECT_LE(t, prev + 1e-12);
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, ProductChain, ::testing::Values(2, 4, 8));

}  // namespace
}  // namespace fpsq::queueing
