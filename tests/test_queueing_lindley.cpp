#include "reference/lindley.h"

#include <cmath>

#include <gtest/gtest.h>

namespace fpsq::queueing {
namespace {

TEST(Lindley, MM1MatchesTheory) {
  // M/M/1: E[W] = rho/(mu - lambda), P(W = 0) = 1 - rho.
  const double lambda = 0.7;
  const double mu = 1.0;
  LindleyOptions opt;
  opt.samples = 400000;
  opt.seed = 9;
  const auto r = simulate_gg1(
      [lambda](dist::Rng& rng) { return rng.exponential(lambda); },
      [mu](dist::Rng& rng) { return rng.exponential(mu); }, opt);
  const double expected = lambda / (mu * (mu - lambda));
  EXPECT_NEAR(r.mean_wait, expected, 0.06 * expected);
  EXPECT_NEAR(r.p_wait_zero, 1.0 - lambda / mu, 0.02);
  // The CI should cover the true value (allow 3x for the 5% miss rate).
  EXPECT_LT(std::abs(r.mean_wait - expected), 4.0 * r.mean_ci95 + 1e-3);
  // Exponential tail: P(W > x) = rho e^{-(mu - lambda) x}.
  const double x = 3.0;
  EXPECT_NEAR(r.waits.tdf(x),
              lambda / mu * std::exp(-(mu - lambda) * x), 0.01);
}

TEST(Lindley, DD1NeverWaits) {
  LindleyOptions opt;
  opt.samples = 10000;
  const auto r = simulate_gg1([](dist::Rng&) { return 1.0; },
                              [](dist::Rng&) { return 0.6; }, opt);
  EXPECT_DOUBLE_EQ(r.mean_wait, 0.0);
  EXPECT_DOUBLE_EQ(r.p_wait_zero, 1.0);
}

TEST(Lindley, ReproducibleForSeed) {
  LindleyOptions opt;
  opt.samples = 5000;
  opt.seed = 42;
  auto run = [&opt]() {
    return simulate_gg1(
        [](dist::Rng& rng) { return rng.exponential(0.5); },
        [](dist::Rng&) { return 1.0; }, opt);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.mean_wait, b.mean_wait);
  EXPECT_DOUBLE_EQ(a.waits.quantile(0.9), b.waits.quantile(0.9));
}

TEST(Lindley, Guards) {
  LindleyOptions opt;
  EXPECT_THROW(simulate_gg1(nullptr, [](dist::Rng&) { return 1.0; }, opt),
               std::invalid_argument);
  opt.samples = 0;
  EXPECT_THROW(simulate_gg1([](dist::Rng&) { return 1.0; },
                            [](dist::Rng&) { return 0.5; }, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::queueing
