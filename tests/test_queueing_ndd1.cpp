#include "reference/ndd1.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dist/rng.h"
#include "queueing/mg1.h"
#include "stats/empirical.h"

namespace fpsq::queueing {
namespace {

/// Brute-force N*D/D/1 *time-stationary* workload: for a periodic
/// superposition the sample path is itself periodic, so the stationary
/// law must be sampled over many independent phase draws (replications),
/// and at uniform random times (the Benes quantity of eq. 2), not at
/// arrival epochs.
stats::Empirical simulate_ndd1(const NDD1Params& q, int replications,
                               std::uint64_t seed) {
  dist::Rng rng{seed};
  stats::Empirical out;
  const int periods = 40;
  const int warmup_periods = 20;
  for (int r = 0; r < replications; ++r) {
    std::vector<double> arrivals;
    arrivals.reserve(static_cast<std::size_t>(q.n) * periods);
    for (int s = 0; s < q.n; ++s) {
      const double phase = rng.uniform01() * q.period_s;
      for (int i = 0; i < periods; ++i) {
        arrivals.push_back(phase + i * q.period_s);
      }
    }
    // Uniform sampling instants in the post-warmup window.
    const double t0 = warmup_periods * q.period_s;
    const double t1 = periods * q.period_s;
    std::vector<double> probes(200);
    for (auto& p : probes) p = rng.uniform(t0, t1);
    // Merge-sweep: workload just before each event.
    std::vector<std::pair<double, bool>> events;  // (time, is_probe)
    events.reserve(arrivals.size() + probes.size());
    for (double a : arrivals) events.push_back({a, false});
    for (double p : probes) events.push_back({p, true});
    std::sort(events.begin(), events.end());
    double workload = 0.0;
    double last = 0.0;
    for (const auto& [t, is_probe] : events) {
      workload = std::max(0.0, workload - (t - last));
      if (is_probe) {
        out.add(workload);
      } else {
        workload += q.service_s;
      }
      last = t;
    }
  }
  return out;
}

TEST(NDD1, LoadFormula) {
  EXPECT_NEAR(ndd1_load({10, 1.0, 0.05}), 0.5, 1e-12);
}

TEST(NDD1, GuardsParameters) {
  EXPECT_THROW(ndd1_benes_tail({0, 1.0, 0.1}, 0.1),
               std::invalid_argument);
  EXPECT_THROW(ndd1_benes_tail({10, 1.0, 0.2}, 0.1),
               std::invalid_argument);  // rho = 2
  EXPECT_THROW(ndd1_quantile({10, 1.0, 0.05}, 0.0, NDD1Method::kBenes),
               std::invalid_argument);
}

TEST(NDD1, TailsAreOrderedChernoffAboveBenes) {
  // The Chernoff bound dominates the exact-binomial dominant-term value.
  const NDD1Params q{24, 1.0, 1.0 / 32.0};  // rho = 0.75
  for (double x : {0.02, 0.08, 0.2}) {
    const double benes = ndd1_benes_tail(q, x);
    const double chern = ndd1_chernoff_tail(q, x);
    EXPECT_GE(chern, benes * 0.999) << "x=" << x;
    // Within the usual Chernoff slack (a factor ~sqrt terms).
    EXPECT_LT(chern, std::max(30.0 * benes, 1e-12)) << "x=" << x;
  }
}

TEST(NDD1, BenesAndUnionBracketSimulation) {
  // The dominant-term value (eq. 3 keeps only the strongest window) is a
  // lower estimate of the true tail; the union bound an upper one. The
  // simulated stationary workload must fall between them, and the
  // dominant-term quantile must converge onto the simulation in the deep
  // tail where one window dominates.
  const NDD1Params q{16, 1.0, 0.045};  // rho = 0.72
  const auto mc = simulate_ndd1(q, 3000, 5);
  for (double p : {0.9, 0.99}) {
    const double x_sim = mc.quantile(p);
    const double tail_sim = 1.0 - p;
    EXPECT_LE(ndd1_benes_tail(q, x_sim), tail_sim * 1.3) << "p=" << p;
    EXPECT_GE(ndd1_union_tail(q, x_sim), tail_sim * 0.7) << "p=" << p;
  }
  for (double p : {0.99, 0.999}) {
    const double x_model = ndd1_quantile(q, 1.0 - p, NDD1Method::kBenes);
    const double x_sim = mc.quantile(p);
    EXPECT_NEAR(x_model, x_sim, 0.25 * (x_sim + q.service_s))
        << "p=" << p;
  }
}

TEST(NDD1, UnionBoundDominatesBenes) {
  const NDD1Params q{24, 1.0, 1.0 / 32.0};
  for (double x : {0.0, 0.05, 0.15, 0.3}) {
    EXPECT_GE(ndd1_union_tail(q, x), ndd1_benes_tail(q, x) - 1e-12)
        << "x=" << x;
  }
}

TEST(NDD1, PoissonLimitApproachesMD1) {
  // As N grows at constant load, the N*D/D/1 tail approaches the M/D/1
  // tail from below (periodic is smoother than Poisson).
  const double rho = 0.7;
  const double d = 0.01;  // packet service time
  const double x = 0.05;
  const MD1 md1{rho / d, d};
  const double md1_tail = md1.wait_tail_exact(x);
  double prev_gap = 1e9;
  for (int n : {20, 80, 320}) {
    const NDD1Params q{n, n * d / rho, d};
    const double t = ndd1_benes_tail(q, x);
    EXPECT_LE(t, md1_tail * 1.15) << "n=" << n;
    const double gap = std::abs(std::log(t) - std::log(md1_tail));
    EXPECT_LT(gap, prev_gap + 0.05) << "n=" << n;
    prev_gap = gap;
  }
}

TEST(NDD1, PoissonChernoffMatchesMD1Shape) {
  // The eq.-12 estimate should track the exact M/D/1 tail within the
  // usual large-deviations prefactor.
  const double rho = 0.6;
  const double d = 0.02;
  const NDD1Params q{50, 50 * d / rho, d};
  const MD1 md1{rho / d, d};
  for (double x : {0.05, 0.1, 0.2}) {
    const double lde = ndd1_poisson_tail(q, x);
    const double exact = md1.wait_tail_exact(x);
    EXPECT_GT(lde, exact * 0.5) << "x=" << x;
    EXPECT_LT(lde, exact * 50.0 + 1e-12) << "x=" << x;
  }
}

TEST(NDD1, QuantilesMonotoneInLoadAndEpsilon) {
  const double d = 0.01;
  double prev = -1.0;
  for (int n : {20, 40, 60, 80}) {
    const NDD1Params q{n, 1.0, d};  // rho = n/100
    const double x = ndd1_quantile(q, 1e-4, NDD1Method::kBenes);
    EXPECT_GE(x, prev) << "n=" << n;
    prev = x;
  }
  const NDD1Params q{60, 1.0, d};
  EXPECT_GE(ndd1_quantile(q, 1e-5, NDD1Method::kChernoff),
            ndd1_quantile(q, 1e-3, NDD1Method::kChernoff));
}

TEST(NDD1, ZeroDelayTailIsBusyProbabilityScale) {
  // P(W > 0) <= 1 and positive at nonzero load for all methods.
  const NDD1Params q{30, 1.0, 0.02};
  for (auto m : {NDD1Method::kBenes, NDD1Method::kChernoff,
                 NDD1Method::kPoisson}) {
    const double x0 = ndd1_quantile(q, 0.5, m);
    EXPECT_GE(x0, 0.0);
  }
  EXPECT_LE(ndd1_benes_tail(q, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ndd1_benes_tail(q, -0.1), 1.0);
}

}  // namespace
}  // namespace fpsq::queueing
