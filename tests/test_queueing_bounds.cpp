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

TEST(Bounds, DeterministicBothHasZeroBound) {
  const GiG1Moments m{1.0, 0.0, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(kingman_mean_wait_bound(m), 0.0);
}

TEST(Bounds, Guards) {
  EXPECT_THROW(kingman_mean_wait_bound({0.0, 0.0, 1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(kingman_mean_wait_bound({1.0, 0.0, 1.5, 0.0}),
               std::invalid_argument);  // rho > 1
  EXPECT_THROW(kingman_mean_wait_bound({1.0, -0.1, 0.5, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
