#include "queueing/bounds.h"

#include <cmath>

#include <gtest/gtest.h>

#include "queueing/giek1.h"
#include "queueing/mg1.h"

namespace fpsq::queueing {
namespace {

TEST(Bounds, KingmanUpperBoundsMD1Mean) {
  for (double rho : {0.3, 0.6, 0.9}) {
    const MD1 q{rho, 1.0};
    const GiG1Moments m{1.0 / rho, 1.0, 1.0, 0.0};
    EXPECT_GE(kingman_mean_wait_bound(m), q.mean_wait() * 0.999)
        << "rho=" << rho;
  }
}

TEST(Bounds, KlbExactForMG1) {
  // KLB reduces to Pollaczek-Khinchine when arrivals are Poisson
  // (ca2 = 1): for M/D/1, W = rho d/(2(1-rho)).
  for (double rho : {0.4, 0.75}) {
    const MD1 q{rho, 1.0};
    const GiG1Moments m{1.0 / rho, 1.0, 1.0, 0.0};
    EXPECT_NEAR(klb_mean_wait(m), q.mean_wait(),
                1e-10 * (1.0 + q.mean_wait()))
        << "rho=" << rho;
  }
}

TEST(Bounds, KingmanUpperBoundsDEk1Mean) {
  for (int k : {2, 9, 20}) {
    for (double rho : {0.5, 0.8}) {
      const GiEk1Solver q{k, rho, deterministic_arrivals(1.0)};
      const GiG1Moments m{1.0, 0.0, rho, 1.0 / static_cast<double>(k)};
      EXPECT_GE(kingman_mean_wait_bound(m), q.mean_wait() * 0.999)
          << "k=" << k << " rho=" << rho;
    }
  }
}

TEST(Bounds, KlbTracksDEk1WithinHeavyTrafficError) {
  // KLB is a heavy-traffic style approximation: for D/E_K/1 at high load
  // it should land within tens of percent of the exact mean.
  const GiEk1Solver q{9, 0.9, deterministic_arrivals(1.0)};
  const GiG1Moments m{1.0, 0.0, 0.9, 1.0 / 9.0};
  EXPECT_NEAR(klb_mean_wait(m) / q.mean_wait(), 1.0, 0.35);
}

TEST(Bounds, TailApproxSharesShapeWithExactMD1) {
  const double rho = 0.8;
  const MD1 q{rho, 1.0};
  const GiG1Moments m{1.0 / rho, 1.0, 1.0, 0.0};
  // Exponential shape with comparable magnitude in the moderate tail.
  for (double x : {2.0, 4.0}) {
    const double approx = kingman_tail_approx(m, x);
    const double exact = q.wait_tail_exact(x);
    EXPECT_GT(approx, 0.2 * exact) << "x=" << x;
    EXPECT_LT(approx, 8.0 * exact) << "x=" << x;
  }
  EXPECT_DOUBLE_EQ(kingman_tail_approx(m, 0.0), 1.0);
}

TEST(Bounds, DeterministicBothHasZeroBound) {
  const GiG1Moments m{1.0, 0.0, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(kingman_mean_wait_bound(m), 0.0);
  EXPECT_DOUBLE_EQ(kingman_tail_approx(m, 0.5), 0.0);
}

TEST(Bounds, Guards) {
  EXPECT_THROW(kingman_mean_wait_bound({0.0, 0.0, 1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(kingman_mean_wait_bound({1.0, 0.0, 1.5, 0.0}),
               std::invalid_argument);  // rho > 1
  EXPECT_THROW(klb_mean_wait({1.0, -0.1, 0.5, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
