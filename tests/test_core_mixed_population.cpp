#include "core/mixed_population.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"

namespace fpsq::core {
namespace {

TEST(MixedUpstream, SingleClassMatchesMD1Form) {
  // One class must reduce exactly to the RttModel's upstream M/D/1.
  const MixedUpstreamModel m{{{80.0, 80.0, 40.0}}, 5e6};
  // rho = 8*80*80 / (0.04 * 5e6) = 0.256.
  EXPECT_NEAR(m.rho(), 0.256, 1e-12);
  EXPECT_NEAR(m.total_packet_rate(), 80.0 / 0.04, 1e-9);
  const auto f = m.mgf();
  EXPECT_NEAR(f.total_mass(), 1.0, 1e-12);
  EXPECT_NEAR(f.tail(0.0), 0.256, 1e-12);  // eq. 14 atom
}

TEST(MixedUpstream, TwoClassesLoadAdds) {
  const MixedUpstreamModel m{
      {{40.0, 80.0, 40.0}, {30.0, 120.0, 60.0}}, 5e6};
  const double rho1 = 8.0 * 40.0 * 80.0 / (0.04 * 5e6);
  const double rho2 = 8.0 * 30.0 * 120.0 / (0.06 * 5e6);
  EXPECT_NEAR(m.rho(), rho1 + rho2, 1e-12);
}

TEST(MixedUpstream, HeavierClassThickensTail) {
  // Adding a big-packet class at the same added load must raise the
  // delay quantile more than adding the same load in small packets.
  const GamerClass base{60.0, 80.0, 40.0};
  const MixedUpstreamModel small{{base, {30.0, 80.0, 40.0}}, 5e6};
  const MixedUpstreamModel big{{base, {5.0, 480.0, 40.0}}, 5e6};
  EXPECT_NEAR(small.rho(), big.rho(), 1e-12);
  EXPECT_GT(big.wait_quantile_ms(1e-5), small.wait_quantile_ms(1e-5));
}

TEST(MixedUpstream, QuantileMatchesMonteCarlo) {
  // Two classes vs a Lindley simulation of the same M/G/1.
  const MixedUpstreamModel m{
      {{100.0, 100.0, 40.0}, {50.0, 250.0, 50.0}}, 5e6};
  const double lam1 = 100.0 / 0.040;
  const double lam2 = 50.0 / 0.050;
  const double d1 = 800.0 / 5e6;
  const double d2 = 2000.0 / 5e6;
  const double lambda = lam1 + lam2;
  const auto mc = testutil::lindley_gg1(
      [lambda](dist::Rng& rng) { return rng.exponential(lambda); },
      [=](dist::Rng& rng) {
        return rng.uniform01() < lam1 / lambda ? d1 : d2;
      },
      600000, 3000, 555);
  // Exact-residue variant at a simulable quantile.
  EXPECT_NEAR(m.queue().asymptotic_mgf().quantile(1e-2) * 1e3,
              mc.quantile(0.99) * 1e3,
              0.15 * mc.quantile(0.99) * 1e3 + 1e-3);
  EXPECT_NEAR(m.mean_wait_ms(), mc.mean() * 1e3,
              0.05 * mc.mean() * 1e3 + 1e-4);
}

TEST(MixedUpstream, Guards) {
  EXPECT_THROW(MixedUpstreamModel({}, 5e6), std::invalid_argument);
  EXPECT_THROW(MixedUpstreamModel({{0.0, 80.0, 40.0}}, 5e6),
               std::invalid_argument);
  EXPECT_THROW(MixedUpstreamModel({{10.0, 80.0, 40.0}}, 0.0),
               std::invalid_argument);
  // Unstable: rho >= 1.
  EXPECT_THROW(MixedUpstreamModel({{4000.0, 80.0, 40.0}}, 5e6),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::core
