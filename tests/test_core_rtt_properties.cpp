// Property grid over the Section-4 parameter space: structural invariants
// of the combined model that must hold at every (K, load, T) corner —
// tail/quantile consistency, bound orderings, cross-validation against
// numerical Laplace inversion of the factored transform, and the exact
// time-scaling the downstream model obeys.
#include <cmath>
#include <complex>
#include <string>

#include <gtest/gtest.h>

#include "core/rtt_model.h"
#include "queueing/position_delay.h"
#include "reference/laplace.h"
#include "reference/rtt_approximations.h"

namespace fpsq::core {
namespace {

struct GridPoint {
  int k;
  double load;
  double tick_ms;
};

class RttGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  [[nodiscard]] AccessScenario scenario() const {
    AccessScenario s;
    s.erlang_k = GetParam().k;
    s.tick_ms = GetParam().tick_ms;
    s.server_packet_bytes = 125.0;
    return s;
  }
  [[nodiscard]] RttModel model() const {
    const auto s = scenario();
    return RttModel{s, s.clients_for_downlink_load(GetParam().load)};
  }
};

TEST_P(RttGrid, QuantileInvertsTail) {
  const auto m = model();
  for (double eps : {1e-2, 1e-5}) {
    const double q_s = m.stochastic_quantile_ms(eps) * 1e-3;
    EXPECT_NEAR(m.total_tail(q_s), eps, 0.02 * eps)
        << "eps=" << eps;
  }
}

TEST_P(RttGrid, TailIsMonotoneAndBounded) {
  const auto m = model();
  const double scale = m.stochastic_quantile_ms(1e-4) * 1e-3;
  double prev = 1.0 + 1e-12;
  for (int i = 0; i <= 12; ++i) {
    const double x = scale * i / 8.0;  // past the 1e-4 quantile
    const double t = m.total_tail(x);
    EXPECT_GE(t, -1e-9) << "x=" << x;
    EXPECT_LE(t, prev + 1e-9) << "x=" << x;
    prev = t;
  }
}

TEST_P(RttGrid, ChernoffAndSumOfQuantilesAreConservative) {
  const auto m = model();
  const double exact = m.stochastic_quantile_ms(1e-5);
  const double chern = chernoff_quantile_ms(m, 1e-5);
  const auto b = m.breakdown_ms(1e-5);
  const double soq = b.upstream_ms + b.burst_ms + b.position_ms;
  EXPECT_GE(chern, exact * 0.999);
  EXPECT_GE(soq, exact * 0.999);
  EXPECT_LT(chern, 2.2 * exact);
  EXPECT_LT(soq, 2.2 * exact);
}

TEST_P(RttGrid, TotalTailMatchesLaplaceInversionOfFactoredMgf) {
  // Independent numerical route: invert the factored product transform.
  const auto m = model();
  auto mgf = [&m](std::complex<double> s) {
    std::complex<double> acc =
        m.upstream_mgf().value(s) * m.position_mixture().mgf(s);
    if (!m.burst_wait_dropped()) {
      acc *= m.downstream_solver().waiting_mgf().value(s);
    }
    return acc;
  };
  const double q = m.stochastic_quantile_ms(1e-3) * 1e-3;
  for (double frac : {0.4, 0.8}) {
    const double x = q * frac;
    const double direct = m.total_tail(x);
    const double inverted = math::tail_from_mgf(mgf, x);
    EXPECT_NEAR(direct, inverted, 2e-6 + 2e-3 * direct)
        << "x=" << x;
  }
}

TEST_P(RttGrid, MeanBelowQuantile) {
  const auto m = model();
  EXPECT_LT(m.rtt_mean_ms(), m.rtt_quantile_ms(1e-5));
  EXPECT_GT(m.rtt_mean_ms(), m.scenario().deterministic_rtt_ms());
}

TEST_P(RttGrid, DownstreamScalesExactlyWithTick) {
  // At fixed load and K, the downstream law is b = rho*T Erlang service
  // every T: pure time scaling. Quantiles must scale linearly in T.
  AccessScenario s = scenario();
  const double n1 = s.clients_for_downlink_load(GetParam().load);
  const RttModel m1{s, n1};
  AccessScenario s2 = scenario();
  s2.tick_ms = s.tick_ms * 2.0;
  // Same load at doubled tick needs doubled clients; the burst grows to
  // 2x, so b/T is unchanged.
  const double n2 = s2.clients_for_downlink_load(GetParam().load);
  const RttModel m2{s2, n2};
  EXPECT_NEAR(m2.downstream_quantile_ms(1e-4),
              2.0 * m1.downstream_quantile_ms(1e-4),
              0.01 * m2.downstream_quantile_ms(1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RttGrid,
    ::testing::Values(GridPoint{2, 0.1, 40.0}, GridPoint{2, 0.5, 60.0},
                      GridPoint{2, 0.9, 40.0}, GridPoint{5, 0.3, 60.0},
                      GridPoint{9, 0.1, 60.0}, GridPoint{9, 0.5, 40.0},
                      GridPoint{9, 0.7, 60.0}, GridPoint{9, 0.9, 60.0},
                      GridPoint{20, 0.3, 40.0}, GridPoint{20, 0.5, 60.0},
                      GridPoint{20, 0.9, 40.0}, GridPoint{30, 0.6, 50.0}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      const auto& p = info.param;
      std::string name = "K";
      name += std::to_string(p.k);
      name += "_load";
      name += std::to_string(static_cast<int>(100 * p.load));
      name += "_T";
      name += std::to_string(static_cast<int>(p.tick_ms));
      return name;
    });

}  // namespace
}  // namespace fpsq::core
