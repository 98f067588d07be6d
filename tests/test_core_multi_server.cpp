#include "core/multi_server.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dist/erlang.h"
#include "obs/metrics.h"
#include "queueing/giek1.h"
#include "queueing/lindley.h"

namespace fpsq::core {
namespace {

TEST(MultiServer, LoadAndRatesAggregate) {
  // Two servers: 5000 B / 40 ms and 3000 B / 60 ms on 10 Mb/s.
  const MultiServerDownstreamModel m{
      {{40.0, 9, 5000.0}, {60.0, 9, 3000.0}}, 10e6};
  const double rho1 = (8.0 * 5000.0 / 10e6) / 0.040;
  const double rho2 = (8.0 * 3000.0 / 10e6) / 0.060;
  EXPECT_NEAR(m.rho(), rho1 + rho2, 1e-12);
  EXPECT_NEAR(m.burst_rate(), 1.0 / 0.040 + 1.0 / 0.060, 1e-9);
  EXPECT_EQ(m.server_count(), 2u);
}

TEST(MultiServer, SingleServerPoissonizedVsDEk1) {
  // One server under the multi-server (Poisson-arrival) model must be
  // *more* pessimistic than the exact D/E_K/1 (deterministic arrivals
  // are smoother), but in the same regime.
  const GameServerSpec s{40.0, 9, 5000.0};
  const MultiServerDownstreamModel m{{s}, 5e6};
  const queueing::GiEk1Solver exact{9, 8.0 * 5000.0 / 5e6,
                                    queueing::deterministic_arrivals(0.040)};
  EXPECT_GT(m.mean_burst_wait_ms(), exact.mean_wait() * 1e3);
  EXPECT_GT(m.burst_wait_quantile_ms(1e-4),
            exact.wait_quantile(1e-4) * 1e3);
}

TEST(MultiServer, PacketDelayQuantilesOrderedByBurstSize) {
  // The big-burst server's tagged packets wait longer (position delay
  // scales with its own burst size).
  const MultiServerDownstreamModel m{
      {{40.0, 9, 8000.0}, {40.0, 9, 2000.0}}, 20e6};
  EXPECT_GT(m.packet_delay_quantile_ms(0, 1e-4),
            m.packet_delay_quantile_ms(1, 1e-4));
  // The mixture quantile lies between the per-server ones.
  const double mix = m.packet_delay_quantile_ms(1e-4);
  EXPECT_GT(mix, m.packet_delay_quantile_ms(1, 1e-4));
  EXPECT_LT(mix, m.packet_delay_quantile_ms(0, 1e-4));
}

TEST(MultiServer, MixtureTailIsRateWeighted) {
  const MultiServerDownstreamModel m{
      {{40.0, 9, 8000.0}, {40.0, 9, 2000.0}}, 20e6};
  const double x = 0.002;
  EXPECT_NEAR(m.packet_delay_tail(x),
              0.5 * m.packet_delay_tail(0, x) +
                  0.5 * m.packet_delay_tail(1, x),
              1e-12);
}

TEST(MultiServer, BurstWaitMatchesLindleyPoissonMc) {
  // Simulate the M/G/1 burst queue directly.
  const MultiServerDownstreamModel m{
      {{40.0, 9, 5000.0}, {60.0, 5, 4000.0}}, 10e6};
  const double lambda = m.burst_rate();
  const dist::Erlang s1{9, 9.0 / (8.0 * 5000.0 / 10e6)};
  const dist::Erlang s2{5, 5.0 / (8.0 * 4000.0 / 10e6)};
  const double w1 = (1.0 / 0.040) / lambda;
  queueing::LindleyOptions opt;
  opt.samples = 400000;
  opt.seed = 13;
  const auto mc = queueing::simulate_gg1(
      [lambda](dist::Rng& rng) { return rng.exponential(lambda); },
      [&](dist::Rng& rng) {
        return rng.uniform01() < w1 ? s1.sample(rng) : s2.sample(rng);
      },
      opt);
  EXPECT_NEAR(m.mean_burst_wait_ms(), mc.mean_wait * 1e3,
              0.05 * mc.mean_wait * 1e3);
  EXPECT_NEAR(m.burst_wait_quantile_ms(1e-2),
              mc.waits.quantile(0.99) * 1e3,
              0.2 * mc.waits.quantile(0.99) * 1e3);
}

TEST(MultiServer, MoreServersAtFixedLoadSmoothsPerServerBursts) {
  // Splitting the same aggregate load over more, smaller servers reduces
  // the packet-position delay (smaller own bursts) — the multiplexing
  // benefit visible in the extension bench.
  const double c = 20e6;
  const MultiServerDownstreamModel one{{{40.0, 9, 16000.0}}, c};
  const MultiServerDownstreamModel four{{{40.0, 9, 4000.0},
                                         {40.0, 9, 4000.0},
                                         {40.0, 9, 4000.0},
                                         {40.0, 9, 4000.0}},
                                        c};
  EXPECT_NEAR(one.rho(), four.rho(), 1e-12);
  EXPECT_LT(four.packet_delay_quantile_ms(1e-4),
            one.packet_delay_quantile_ms(1e-4));
}

TEST(MultiServer, ExactAndAsymptoticWaitFormsAgreeInTheTail) {
  const std::vector<GameServerSpec> servers = {{40.0, 9, 5000.0},
                                               {60.0, 5, 4000.0}};
  const MultiServerDownstreamModel m{servers, 10e6};
  // The exact form is the one in use here (total order 14).
  EXPECT_TRUE(m.exact_wait());
  const queueing::MG1ErlangMixService& q = m.queue();
  const double exact = q.full_mgf().quantile(1e-6);
  EXPECT_DOUBLE_EQ(m.burst_wait_quantile_ms(1e-6), exact * 1e3);
  // Deep quantiles converge (same dominant pole).
  EXPECT_NEAR(exact / q.asymptotic_mgf().quantile(1e-6), 1.0, 0.05);
}

TEST(MultiServer, IdenticalServersReduceTheTransformOrder) {
  // 10 identical servers share one Erlang rate: the reduced transform
  // has only K = 9 poles, so the exact form stays cheap and usable.
  std::vector<GameServerSpec> servers(10, GameServerSpec{40.0, 9, 1000.0});
  const MultiServerDownstreamModel m{servers, 20e6};
  EXPECT_TRUE(m.exact_wait());
  EXPECT_GT(m.packet_delay_quantile_ms(1e-4), 0.0);
}

TEST(MultiServer, AutoFallsBackAtHighTotalOrder) {
  // Heterogeneous burst sizes -> distinct rates -> order 9 * 10 = 90.
  std::vector<GameServerSpec> servers;
  for (int i = 0; i < 10; ++i) {
    servers.push_back({40.0, 9, 900.0 + 50.0 * i});
  }
  const MultiServerDownstreamModel m{servers, 20e6};
  EXPECT_FALSE(m.exact_wait());
  EXPECT_GT(m.packet_delay_quantile_ms(1e-4), 0.0);
}

TEST(MultiServer, HeterogeneousPoleSearchStopsAtTheRoundingFloor) {
  // One big and four small K = 9 servers: an order-18 pole polynomial
  // with roots spread over |z| in [0.04, 2.3] under a Cauchy radius of
  // ~4e3. Durand-Kerner's moves never fall below ~1e-11 there; the
  // iteration must end at the Horner rounding floor, not at its cap.
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  const double c = 20e6;
  const double total = 0.5 * c * 0.040 / 8.0;
  std::vector<GameServerSpec> servers{{40.0, 9, 0.6 * total}};
  for (int i = 0; i < 4; ++i) servers.push_back({40.0, 9, 0.1 * total});
  const MultiServerDownstreamModel model{servers, c};
  EXPECT_NEAR(model.packet_delay_quantile_ms(1e-5), 95.83894021, 1e-6);
#ifndef FPSQ_NO_METRICS
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == "queueing.mg1_erlang.durand_kerner.iterations") {
      EXPECT_EQ(h.count, 1u);
      EXPECT_LT(h.max, 500.0);
    }
  }
#endif
}

TEST(MultiServer, Guards) {
  EXPECT_THROW(MultiServerDownstreamModel({}, 1e6), std::invalid_argument);
  EXPECT_THROW(MultiServerDownstreamModel({{40.0, 1, 1000.0}}, 1e6),
               std::invalid_argument);  // K = 1
  EXPECT_THROW(MultiServerDownstreamModel({{40.0, 9, 1000.0}}, 0.0),
               std::invalid_argument);
  // Unstable.
  EXPECT_THROW(MultiServerDownstreamModel({{40.0, 9, 1e6}}, 1e6),
               std::invalid_argument);
  const MultiServerDownstreamModel m{{{40.0, 9, 1000.0}}, 1e6};
  EXPECT_THROW(m.packet_delay_tail(5, 0.1), std::out_of_range);
  EXPECT_THROW(m.packet_delay_quantile_ms(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::core
