#include "math/lambert_w.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace fpsq::math {
namespace {

TEST(LambertW, KnownValues) {
  // References: mpmath.lambertw(z, 0) at 50 digits.
  struct Case {
    Complex z, w;
  };
  for (const Case& c :
       {Case{{0.0, 0.0}, {0.0, 0.0}},
        Case{{1.0, 0.0}, {0.56714329040978387300, 0.0}},  // omega constant
        Case{{-0.3, 0.0}, {-0.48940222718021493357, 0.0}},
        Case{{0.25, 0.0}, {0.20388835470224016444, 0.0}},
        Case{{0.2, 0.3}, {0.20858327848678268866, 0.20530822518305399047}},
        Case{{-0.3, -0.2},
             {-0.26253371243777323244, -0.38839479642437381132}},
        Case{{3.0, 4.0}, {1.2815618061237758782, 0.53309522202097107131}}}) {
    const auto r = lambert_w0(c.z);
    ASSERT_TRUE(r.converged) << c.z;
    EXPECT_LE(std::abs(r.root - c.w), 4e-16 * (1.0 + std::abs(c.w)))
        << "z=" << c.z << " got " << r.root;
  }
}

TEST(LambertW, SatisfiesDefiningEquationAcrossTheDiskOfEq26) {
  // The D/E_K/1 arguments x = -rho^{-1} e^{-1/rho} omega fill the disk
  // |x| < 1/e; near x = -1/e (rho -> 1) W_0 is conditioned like
  // 1/|1 + W|, so the residual is checked relative to that.
  for (double radius : {1e-6, 0.05, 0.2, 0.3, 0.36, 0.367, 0.3678794}) {
    for (int j = 0; j < 64; ++j) {
      const Complex z =
          std::polar(radius, 2.0 * M_PI * static_cast<double>(j) / 64.0);
      const auto r = lambert_w0(z);
      ASSERT_TRUE(r.converged) << z;
      EXPECT_LE(r.iterations, 5) << z;
      const Complex w = r.root;
      EXPECT_LE(std::abs(w * std::exp(w) - z), 1e-15 * (1.0 + std::abs(z)))
          << z;
      EXPECT_GT(w.real(), -1.0) << z;  // principal branch
    }
  }
}

TEST(LambertW, BranchPointNeighbourhood) {
  // z = -1/e (1 - d): W_0 = -1 + sqrt(2 d) + O(d). The rounding of z
  // itself (~1e-16) is amplified by W_0's condition 1/|1 + W| there.
  for (double d : {1e-2, 1e-5, 1e-8, 1e-12, 1e-15}) {
    const Complex z{-std::exp(-1.0) * (1.0 - d), 0.0};
    const auto r = lambert_w0(z);
    ASSERT_TRUE(r.converged) << d;
    EXPECT_NEAR(r.root.real(), -1.0 + std::sqrt(2.0 * d),
                2.0 * d + 4e-16 / std::sqrt(2.0 * d))
        << d;
    EXPECT_EQ(r.root.imag(), 0.0) << d;
  }
  // The branch point itself, to working precision.
  const auto r = lambert_w0(Complex{-std::exp(-1.0), 0.0});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.root.real(), -1.0, 1e-7);
}

TEST(LambertW, IterationCapIsAFailureNotAnAnswer) {
  // A NaN argument never meets the stopping rule: the solve must run
  // into its cap and say so.
  const auto r =
      lambert_w0(Complex{std::numeric_limits<double>::quiet_NaN(), 0.0});
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 16);
}

}  // namespace
}  // namespace fpsq::math
