#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dist/rng.h"
#include "stats/batch_means.h"
#include "stats/empirical.h"
#include "stats/histogram.h"
#include "stats/moments.h"

namespace fpsq::stats {
namespace {

TEST(Moments, BasicStatistics) {
  Moments m;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.add(x);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_NEAR(m.cov(), m.stddev() / 5.0, 1e-15);
  EXPECT_NEAR(m.sum(), 40.0, 1e-12);
}

TEST(Moments, EmptyIsSafe) {
  const Moments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.cov(), 0.0);
}

TEST(Moments, MergeEqualsPooled) {
  dist::Rng rng{1};
  Moments a, b, pooled;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    pooled.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(Moments, MergeWithEmpty) {
  Moments a;
  a.add(1.0);
  Moments empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Histogram, CountsAndDensity) {
  Histogram h{0.0, 10.0, 10};
  for (double x : {0.5, 1.5, 1.6, 5.0, 9.99, -1.0, 12.0}) h.add(x);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  const auto d = h.densities();
  EXPECT_NEAR(d[1], 2.0 / (7.0 * 1.0), 1e-12);
  EXPECT_NEAR(h.bin_center(3), 3.5, 1e-12);
  EXPECT_THROW(h.bin_center(10), std::out_of_range);
}

TEST(Histogram, TdfIsMonotoneAndAnchored) {
  Histogram h{0.0, 100.0, 20};
  dist::Rng rng{2};
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform(0, 100));
  const auto t = h.tdf();
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(t[i], t[i - 1] + 1e-12);
  }
  // P(X > 100) should be ~0; P(X > 5) ~ 0.95.
  EXPECT_NEAR(t.back(), 0.0, 1e-9);
  EXPECT_NEAR(t[0], 0.95, 0.02);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Empirical, CdfQuantileTdf) {
  Empirical e{{1.0, 2.0, 3.0, 4.0, 5.0}};
  EXPECT_DOUBLE_EQ(e.cdf(3.0), 0.6);
  EXPECT_DOUBLE_EQ(e.tdf(3.0), 0.4);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(e.min(), 1.0);
  EXPECT_DOUBLE_EQ(e.max(), 5.0);
  EXPECT_DOUBLE_EQ(e.mean(), 3.0);
}

TEST(Empirical, LazySortOnAdd) {
  Empirical e;
  e.add(5.0);
  e.add(1.0);
  e.add(3.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 3.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.min(), 0.0);
}

TEST(Empirical, GuardsEmptyAndRange) {
  Empirical e;
  EXPECT_THROW(e.quantile(0.5), std::logic_error);
  e.add(1.0);
  EXPECT_THROW(e.quantile(1.5), std::domain_error);
}

TEST(Empirical, KsDistanceOfPerfectFitIsSmall) {
  dist::Rng rng{3};
  Empirical e;
  const int n = 5000;
  for (int i = 0; i < n; ++i) e.add(rng.uniform01());
  const double ks = e.ks_distance([](double x) {
    return x < 0 ? 0.0 : (x > 1 ? 1.0 : x);
  });
  EXPECT_LT(ks, 2.0 / std::sqrt(double(n)));
}

TEST(BatchMeans, RecoversMeanWithSaneInterval) {
  dist::Rng rng{5};
  BatchMeans bm{100};
  for (int i = 0; i < 10000; ++i) bm.add(rng.uniform(0, 2));
  EXPECT_EQ(bm.batches(), 100u);
  EXPECT_NEAR(bm.mean(), 1.0, 0.05);
  const double hw = bm.half_width_95();
  EXPECT_GT(hw, 0.0);
  EXPECT_LT(hw, 0.1);
}

TEST(BatchMeans, Guards) {
  EXPECT_THROW(BatchMeans(0), std::invalid_argument);
  BatchMeans bm{10};
  EXPECT_THROW(bm.mean(), std::logic_error);
  for (int i = 0; i < 10; ++i) bm.add(1.0);
  EXPECT_THROW(bm.half_width_95(), std::logic_error);
}

}  // namespace
}  // namespace fpsq::stats
