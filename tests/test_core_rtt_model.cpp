#include "core/rtt_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "queueing/inversion.h"
#include "reference/convolution.h"
#include "reference/rtt_approximations.h"
#include "reference/validation.h"

namespace fpsq::core {
namespace {

AccessScenario fig3_scenario(int k) {
  AccessScenario s;
  s.server_packet_bytes = 125.0;
  s.tick_ms = 60.0;
  s.erlang_k = k;
  return s;
}

TEST(RttModel, LoadsAndGuards) {
  const AccessScenario s = fig3_scenario(9);
  const RttModel m{s, s.clients_for_downlink_load(0.5)};
  EXPECT_NEAR(m.rho_down(), 0.5, 1e-12);
  EXPECT_NEAR(m.rho_up(), 0.5 * 80.0 / 125.0, 1e-12);
  EXPECT_THROW(RttModel(s, 0.0), std::invalid_argument);
  EXPECT_THROW(RttModel(s, s.max_stable_clients() + 1.0),
               std::invalid_argument);
  AccessScenario k1 = fig3_scenario(1);
  EXPECT_THROW(RttModel(k1, 10.0), std::invalid_argument);
}

TEST(RttModel, RttIncreasesWithLoad) {
  const AccessScenario s = fig3_scenario(9);
  double prev = 0.0;
  for (double rho : {0.05, 0.2, 0.4, 0.6, 0.8, 0.92}) {
    const RttModel m{s, s.clients_for_downlink_load(rho)};
    const double q = m.rtt_quantile_ms(1e-5);
    EXPECT_GT(q, prev) << "rho=" << rho;
    prev = q;
  }
}

TEST(RttModel, RttDecreasesWithK) {
  // Figure 3's headline: higher Erlang order -> lower quantile.
  double prev = 1e9;
  for (int k : {2, 9, 20}) {
    const AccessScenario s = fig3_scenario(k);
    const RttModel m{s, s.clients_for_downlink_load(0.5)};
    const double q = m.rtt_quantile_ms(1e-5);
    EXPECT_LT(q, prev) << "k=" << k;
    prev = q;
  }
}

TEST(RttModel, RttNearlyProportionalToTickInterval) {
  // Figure 4: when the downlink dominates, RTT ~ T (ratio ~ 3/2 between
  // T = 60 and T = 40 at equal load).
  AccessScenario s40 = fig3_scenario(9);
  s40.tick_ms = 40.0;
  AccessScenario s60 = fig3_scenario(9);
  const double rho = 0.4;
  const RttModel m40{s40, s40.clients_for_downlink_load(rho)};
  const RttModel m60{s60, s60.clients_for_downlink_load(rho)};
  const double ratio =
      m60.rtt_quantile_ms(1e-5) / m40.rtt_quantile_ms(1e-5);
  EXPECT_NEAR(ratio, 1.5, 0.1);
}

TEST(RttModel, CapacityInvarianceAtFixedLoad) {
  // Section 4: changing C at fixed load only moves the (small)
  // serialization part.
  AccessScenario a = fig3_scenario(9);
  AccessScenario b = fig3_scenario(9);
  b.bottleneck_bps = 20e6;
  const double rho = 0.5;
  const RttModel ma{a, a.clients_for_downlink_load(rho)};
  const RttModel mb{b, b.clients_for_downlink_load(rho)};
  const double qa = ma.stochastic_quantile_ms(1e-5);
  const double qb = mb.stochastic_quantile_ms(1e-5);
  EXPECT_NEAR(qa, qb, 0.02 * qa);
  EXPECT_NEAR(ma.rtt_quantile_ms(1e-5), mb.rtt_quantile_ms(1e-5),
              3.0);  // only serialization differs (~ms)
}

TEST(RttModel, BreakdownIsConsistent) {
  const AccessScenario s = fig3_scenario(9);
  const RttModel m{s, s.clients_for_downlink_load(0.5)};
  const auto b = m.breakdown_ms(1e-5);
  EXPECT_GT(b.position_ms, 0.0);
  EXPECT_GT(b.total_ms, b.deterministic_ms);
  // The exact combined quantile is below the sum of the parts.
  EXPECT_LE(b.total_ms, b.deterministic_ms + b.upstream_ms + b.burst_ms +
                            b.position_ms + 1e-9);
  // ... and at least the deterministic part plus the largest component.
  EXPECT_GE(b.total_ms, b.deterministic_ms + b.position_ms - 1e-9);
}

TEST(RttModel, MethodOrdering) {
  const AccessScenario s = fig3_scenario(9);
  const RttModel m{s, s.clients_for_downlink_load(0.6)};
  const double exact = m.stochastic_quantile_ms(1e-5);
  const double chern = chernoff_quantile_ms(m, 1e-5);
  const auto b = m.breakdown_ms(1e-5);
  const double soq = b.upstream_ms + b.burst_ms + b.position_ms;
  EXPECT_GE(chern, exact * 0.999);
  EXPECT_GE(soq, exact * 0.999);
  // Both stay within a reasonable factor.
  EXPECT_LT(chern, 2.0 * exact);
  EXPECT_LT(soq, 2.0 * exact);
}

TEST(RttModel, DominantPoleReasonableAtHighLoad) {
  // At high load the burst-wait pole dominates and carries most mass: the
  // dominant-pole method should be within tens of percent of exact.
  const AccessScenario s = fig3_scenario(9);
  const RttModel m{s, s.clients_for_downlink_load(0.85)};
  const double exact = m.stochastic_quantile_ms(1e-5);
  const double dom = dominant_pole_quantile_ms(m, 1e-5);
  EXPECT_NEAR(dom / exact, 1.0, 0.35);
}

TEST(RttModel, LowLoadDropsBurstWait) {
  const AccessScenario s = fig3_scenario(20);
  const RttModel m{s, s.clients_for_downlink_load(0.04)};
  EXPECT_TRUE(m.burst_wait_dropped());
  EXPECT_GT(m.rtt_quantile_ms(1e-5), m.scenario().deterministic_rtt_ms());
}

TEST(RttModel, TotalTailMatchesFactoredMgfThroughChernoff) {
  // total_mgf_value is consistent: F(0) = 1 and F(s) increasing on
  // (0, pole).
  const AccessScenario s = fig3_scenario(9);
  const RttModel m{s, s.clients_for_downlink_load(0.5)};
  EXPECT_NEAR(m.total_mgf_value(0.0), 1.0, 1e-9);
  EXPECT_GT(m.total_mgf_value(10.0), m.total_mgf_value(0.0));
}

TEST(RttModel, LargeKKernelsMatchOracleAndExceedTheMean) {
  // Paper defaults at K far past where an expanded partial-fraction
  // product overflows (beta^K): both kernels must stay exact and the
  // 99.999% RTT must sit above the mean RTT.
  for (int k : {96, 128}) {
    for (double rho : {0.3, 0.6}) {
      AccessScenario s;
      s.erlang_k = k;
      const RttModel m{s, s.clients_for_downlink_load(rho)};
      const auto& pos = m.position_mixture();
      const double x_total = m.total_kernel()->mean();
      EXPECT_NEAR(m.total_kernel()->tail(x_total),
                  queueing::convolved_tail(m.upstream_burst_mgf(), pos,
                                           x_total),
                  1e-9)
          << "K=" << k << " rho=" << rho;
      const queueing::TailKernel down = m.downstream_kernel();
      const double x_down = down.mean();
      const double down_oracle =
          m.burst_wait_dropped()
              ? pos.tail(x_down)
              : queueing::convolved_tail(m.burst_wait_mgf(), pos, x_down);
      EXPECT_NEAR(down.tail(x_down), down_oracle, 1e-9)
          << "K=" << k << " rho=" << rho;
      EXPECT_GT(m.rtt_quantile_ms(1e-5), m.rtt_mean_ms())
          << "K=" << k << " rho=" << rho;
    }
  }
}

TEST(RttModel, TotalQuantileNewtonStopsAtTheRoot) {
  // Paper defaults, K = 32, rho_d = 0.07: a Newton step lands within
  // rounding of the bracket end just set. Accepting that iterate ends
  // the solve; rejecting it used to bisect from the stale far end for
  // ~60 more tail and density evaluations.
  AccessScenario s;
  s.erlang_k = 32;
  const RttModel m{s, s.clients_for_downlink_load(0.07)};
  const queueing::TailKernel& kern = *m.total_kernel();
  int evals = 0;
  const double q = queueing::invert_tail_newton(
      [&](double x) {
        ++evals;
        return kern.tail(x);
      },
      [&](double x) {
        ++evals;
        return kern.density(x);
      },
      1e-5, kern.mean() + 1.0 / m.position_mixture().beta(),
      "test.kernel");
  EXPECT_EQ(q, kern.quantile(1e-5));
  EXPECT_LE(evals, 16);
}

TEST(RttModel, MeanRttAboveDeterministic) {
  const AccessScenario s = fig3_scenario(9);
  const RttModel m{s, s.clients_for_downlink_load(0.3)};
  EXPECT_GT(m.rtt_mean_ms(), s.deterministic_rtt_ms());
  EXPECT_LT(m.rtt_mean_ms(), m.rtt_quantile_ms(1e-5));
}

TEST(RttModel, JitteredTicksUseGiEk1AndThickenTheTail) {
  AccessScenario det = fig3_scenario(9);
  AccessScenario jit = fig3_scenario(9);
  jit.tick_jitter_cov = 0.3;
  const double n = det.clients_for_downlink_load(0.6);
  const RttModel m_det{det, n};
  const RttModel m_jit{jit, n};
  // One solver, on each model's own tick law.
  EXPECT_EQ(m_det.downstream_solver().arrivals().name, "Det");
  EXPECT_EQ(m_jit.downstream_solver().arrivals().name, "Gamma");
  EXPECT_DOUBLE_EQ(m_jit.downstream_solver().arrivals().mean,
                   jit.tick_ms * 1e-3);
  EXPECT_EQ(&m_jit.burst_wait_mgf(),
            &m_jit.downstream_solver().waiting_mgf());
  // Jitter strictly increases the quantile at this load.
  EXPECT_GT(m_jit.rtt_quantile_ms(1e-5), m_det.rtt_quantile_ms(1e-5));
  // Tiny jitter converges to the deterministic model.
  AccessScenario tiny = fig3_scenario(9);
  tiny.tick_jitter_cov = 0.01;
  const RttModel m_tiny{tiny, n};
  EXPECT_NEAR(m_tiny.rtt_quantile_ms(1e-5), m_det.rtt_quantile_ms(1e-5),
              0.01 * m_det.rtt_quantile_ms(1e-5));
}

TEST(RttModel, JitteredModelMatchesJitteredSimulation) {
  AccessScenario s = fig3_scenario(9);
  s.tick_ms = 40.0;
  s.tick_jitter_cov = 0.3;
  ValidationOptions opt;
  opt.quantile_prob = 0.995;
  opt.duration_s = 150.0;
  opt.seed = 21;
  const int n = static_cast<int>(s.clients_for_downlink_load(0.6));
  const auto p = validate_point(s, n, opt);
  EXPECT_NEAR(p.model_down_ms / p.sim_down_ms, 1.0, 0.12);
}

// Paper Figure 3 anchor values (read off the published curves, generous
// tolerances): K = 2 blows past 200 ms by 50% load; K = 20 stays under
// 100 ms through 70%.
TEST(RttModel, Figure3Anchors) {
  {
    const AccessScenario s = fig3_scenario(2);
    const RttModel m{s, s.clients_for_downlink_load(0.5)};
    EXPECT_GT(m.rtt_quantile_ms(1e-5), 150.0);
  }
  {
    const AccessScenario s = fig3_scenario(20);
    const RttModel m{s, s.clients_for_downlink_load(0.7)};
    EXPECT_LT(m.rtt_quantile_ms(1e-5), 120.0);
  }
}

}  // namespace
}  // namespace fpsq::core
