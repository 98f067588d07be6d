// queueing::SolverCache — hits must be bit-identical to cold solves
// (including the degenerate collapsed-pole regime), and keys are exact:
// parameters one ulp apart never share an entry.
#include "queueing/solver_cache.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.h"
#include "queueing/giek1.h"

namespace queueing = fpsq::queueing;
using queueing::SolverCache;

namespace {

/// D/E_K/1 (deterministic ticks every T) through the cache.
std::shared_ptr<const queueing::GiEk1Solver> dek1(SolverCache& cache, int k,
                                                  double b, double t) {
  return cache.giek1(k, b, queueing::deterministic_arrivals(t));
}

/// The same law solved cold, with no cache involved.
queueing::GiEk1Solver cold_dek1(int k, double b, double t) {
  return queueing::GiEk1Solver{k, b, queueing::deterministic_arrivals(t)};
}

void expect_bitwise_equal(const queueing::GiEk1Solver& a,
                          const queueing::GiEk1Solver& b) {
  ASSERT_EQ(a.k(), b.k());
  ASSERT_EQ(a.zetas().size(), b.zetas().size());
  for (std::size_t j = 0; j < a.zetas().size(); ++j) {
    EXPECT_EQ(a.zetas()[j], b.zetas()[j]) << "zeta " << j;
    EXPECT_EQ(a.poles()[j], b.poles()[j]) << "pole " << j;
    EXPECT_EQ(a.weights()[j], b.weights()[j]) << "weight " << j;
  }
  EXPECT_EQ(a.p_wait_zero(), b.p_wait_zero());
  EXPECT_EQ(a.degenerate(), b.degenerate());
}

}  // namespace

TEST(SolverCache, OneUlpApartParametersAreSeparateEntries) {
  SolverCache cache;
  const double t = 1.0;
  const double t_next = std::nextafter(1.0, 2.0);
  const auto a = dek1(cache, 9, 0.5, t);
  const auto b = dek1(cache, 9, 0.5, t_next);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->arrivals().mean, t);
  EXPECT_EQ(b->arrivals().mean, t_next);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
  // Each entry is the canonical solve of its own parameters.
  expect_bitwise_equal(cold_dek1(9, 0.5, t_next), *b);
}

TEST(SolverCache, Dek1HitIsBitIdenticalToColdSolve) {
  SolverCache cache;
  const int k = 9;
  const double b = 0.018, t = 0.040;
  const queueing::GiEk1Solver cold = cold_dek1(k, b, t);
  const auto first = dek1(cache, k, b, t);   // miss -> canonical solve
  const auto second = dek1(cache, k, b, t);  // hit
  EXPECT_EQ(first.get(), second.get());      // same shared entry
  expect_bitwise_equal(cold, *first);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SolverCache, Dek1DegenerateRegimeCachesIdentically) {
  // Very low load: poles collapse onto beta and the solver degenerates
  // to a point mass. The cached entry must reproduce that exactly.
  SolverCache cache;
  const int k = 9;
  const double b = 0.0004, t = 0.040;  // rho = 0.01
  const queueing::GiEk1Solver cold = cold_dek1(k, b, t);
  ASSERT_TRUE(cold.degenerate());
  const auto cached = dek1(cache, k, b, t);
  const auto hit = dek1(cache, k, b, t);
  EXPECT_EQ(cached.get(), hit.get());
  expect_bitwise_equal(cold, *hit);
  EXPECT_EQ(cold.wait_quantile(1e-5), hit->wait_quantile(1e-5));
}

TEST(SolverCache, Giek1FactoriesMemoizeCustomTransformsDoNot) {
  SolverCache cache;
  const auto arrivals = queueing::gamma_arrivals_mean_cov(0.040, 0.07);
  const auto a = cache.giek1(9, 0.018, arrivals);
  const auto b = cache.giek1(9, 0.018, arrivals);
  EXPECT_EQ(a.get(), b.get());
  const queueing::GiEk1Solver cold{9, 0.018, arrivals};
  for (std::size_t j = 0; j < cold.zetas().size(); ++j) {
    EXPECT_EQ(a->zetas()[j], cold.zetas()[j]);
    EXPECT_EQ(a->weights()[j], cold.weights()[j]);
  }
  // A custom transform (no key_params) is never memoized.
  queueing::ArrivalTransform custom = arrivals;
  custom.key_params.clear();
  const auto c1 = cache.giek1(9, 0.018, custom);
  const auto c2 = cache.giek1(9, 0.018, custom);
  EXPECT_NE(c1.get(), c2.get());
  EXPECT_EQ(c1->wait_quantile(1e-5), c2->wait_quantile(1e-5));
}

TEST(SolverCache, ClearDropsEntries) {
  SolverCache cache;
  (void)dek1(cache, 9, 0.018, 0.040);
  (void)dek1(cache, 9, 0.020, 0.040);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  (void)dek1(cache, 9, 0.018, 0.040);
  EXPECT_EQ(cache.stats().misses, 3u);
}

#ifndef FPSQ_NO_METRICS
TEST(SolverCache, CounterFamilyFollowsTheArrivalLaw) {
  // Deterministic ticks count under queueing.cache.dek1.*, every other
  // law under queueing.cache.giek1.*, in one entry map.
  auto& reg = fpsq::obs::MetricsRegistry::global();
  reg.reset();
  SolverCache cache;
  (void)dek1(cache, 9, 0.018, 0.040);
  (void)dek1(cache, 9, 0.018, 0.040);
  (void)cache.giek1(9, 0.018,
                    queueing::gamma_arrivals_mean_cov(0.040, 0.07));
  const auto counter = [&reg](const char* name) {
    for (const auto& c : reg.snapshot().counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  EXPECT_EQ(counter("queueing.cache.dek1.misses"), 1u);
  EXPECT_EQ(counter("queueing.cache.dek1.hits"), 1u);
  EXPECT_EQ(counter("queueing.cache.giek1.misses"), 1u);
  EXPECT_EQ(counter("queueing.cache.giek1.hits"), 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
}
#endif  // FPSQ_NO_METRICS
