#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist.h"
#include "stats/empirical.h"
#include "stats/moments.h"

namespace fpsq::dist {
namespace {

constexpr std::size_t kSamples = 200000;

std::vector<std::shared_ptr<Distribution>> laws() {
  return {
      std::make_shared<Uniform>(-1.0, 4.0),
      std::make_shared<Exponential>(2.5),
      std::make_shared<Erlang>(9, 0.5),
      std::make_shared<Gamma>(0.7, 2.0),   // shape < 1 boosting branch
      std::make_shared<Gamma>(6.3, 0.9),
      std::make_shared<Normal>(-3.0, 1.7),
      std::make_shared<Lognormal>(0.2, 0.6),
      std::make_shared<Extreme>(55.0, 6.0),
      std::make_shared<Mixture>(std::vector<Mixture::Component>{
          {0.5, std::make_shared<Exponential>(1.0)},
          {0.5, std::make_shared<Exponential>(0.1)}}),
  };
}

class SamplingLaw
    : public ::testing::TestWithParam<std::shared_ptr<Distribution>> {};

TEST_P(SamplingLaw, SampleMomentsMatchTheory) {
  const auto& d = *GetParam();
  Rng rng{0xfeedbeef};
  stats::Moments m;
  for (std::size_t i = 0; i < kSamples; ++i) {
    m.add(d.sample(rng));
  }
  const double sd = d.stddev();
  // Mean within ~6 standard errors.
  EXPECT_NEAR(m.mean(), d.mean(),
              6.0 * sd / std::sqrt(double(kSamples)) + 1e-12)
      << d.name();
  // Variance within 8% (heavy-tailed components converge slowly).
  EXPECT_NEAR(m.variance(), d.variance(), 0.08 * d.variance() + 1e-12)
      << d.name();
}

TEST_P(SamplingLaw, KolmogorovSmirnovAgainstCdf) {
  const auto& d = *GetParam();
  Rng rng{0xabad1dea};
  stats::Empirical emp;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    emp.add(d.sample(rng));
  }
  const double ks =
      emp.ks_distance([&d](double x) { return d.cdf(x); });
  // 1% critical value ~ 1.63 / sqrt(n); allow slack for repeatability.
  EXPECT_LT(ks, 2.0 / std::sqrt(double(n))) << d.name();
}

INSTANTIATE_TEST_SUITE_P(AllLaws, SamplingLaw, ::testing::ValuesIn(laws()));

TEST(Rng, Deterministic) {
  Rng a{7};
  Rng b{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntUnbiasedSmallRange) {
  Rng rng{11};
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_int(5)];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 5.0, 5.0 * std::sqrt(n / 5.0));
  }
}

TEST(Rng, SplitStreamsDiffer) {
  Rng a{7};
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NormalMomentsSane) {
  Rng rng{99};
  stats::Moments m;
  for (int i = 0; i < 200000; ++i) m.add(rng.normal());
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
}

}  // namespace
}  // namespace fpsq::dist
