#include "core/multi_server.h"

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "dist/erlang.h"
#include "err/error.h"
#include "obs/metrics.h"
#include "queueing/giek1.h"
#include "reference/lindley.h"

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

TEST(MultiServer, WaitTransformHasTheRealDominantPole) {
  const std::vector<GameServerSpec> servers = {{40.0, 9, 5000.0},
                                               {60.0, 5, 4000.0}};
  const MultiServerDownstreamModel m{servers, 10e6};
  const queueing::MG1ErlangMixService& q = m.queue();
  const auto wait = q.full_mgf();
  EXPECT_DOUBLE_EQ(m.burst_wait_quantile_ms(1e-6), wait.quantile(1e-6) * 1e3);
  // The slowest pole of the all-pole form is the real root that the
  // independent Brent solve finds.
  EXPECT_EQ(wait.dominant_pole().imag(), 0.0);
  EXPECT_NEAR(wait.dominant_pole().real(), q.dominant_pole(),
              1e-10 * q.dominant_pole());
}

TEST(MultiServer, IdenticalServersReduceTheTransformOrder) {
  // 10 identical servers share one Erlang rate: the reduced transform
  // has only K = 9 poles.
  std::vector<GameServerSpec> servers(10, GameServerSpec{40.0, 9, 1000.0});
  const MultiServerDownstreamModel m{servers, 20e6};
  EXPECT_EQ(m.queue().full_mgf().terms().size(), 9u);
  EXPECT_GT(m.packet_delay_quantile_ms(1e-4), 0.0);
}

/// The wait transform is complete: total_order() poles, the atom
/// P(W = 0) = 1 - rho, and the Pollaczek-Khinchine mean.
void expect_complete_wait(const MultiServerDownstreamModel& m,
                          const std::string& where) {
  const queueing::MG1ErlangMixService& q = m.queue();
  const auto wait = q.full_mgf();
  EXPECT_EQ(wait.terms().size(), static_cast<std::size_t>(q.total_order()))
      << where;
  EXPECT_NEAR(wait.constant_term(), 1.0 - q.rho(), 1e-11) << where;
  EXPECT_NEAR(wait.mean(), q.mean_wait(), 1e-11 * q.mean_wait()) << where;
}

TEST(MultiServer, HighTotalOrderIsExact) {
  // Heterogeneous burst sizes -> distinct rates -> order 9 * 10 = 90.
  std::vector<GameServerSpec> servers;
  for (int i = 0; i < 10; ++i) {
    servers.push_back({40.0, 9, 900.0 + 50.0 * i});
  }
  const MultiServerDownstreamModel m{servers, 20e6};
  EXPECT_EQ(m.queue().total_order(), 90);
  expect_complete_wait(m, "ten servers");
  EXPECT_GT(m.packet_delay_quantile_ms(1e-4), 0.0);
}

TEST(MultiServer, ExactAtEveryOrder) {
  // One server (K, 5000 B) for K up to 64, and two servers (K, 5000 B) +
  // (K+1, 4000 B), with T = 40 ms and C set for the load.
  const auto capacity_for = [](const std::vector<GameServerSpec>& servers,
                               double rho) {
    double bps = 0.0;
    for (const auto& s : servers) {
      bps += 8.0 * s.mean_burst_bytes / (s.tick_ms * 1e-3);
    }
    return bps / rho;
  };
  std::vector<std::pair<std::vector<GameServerSpec>, double>> cases;
  for (int k : {32, 40, 48, 64}) {
    for (double rho : {0.02, 0.05, 0.1, 0.2, 0.5, 0.8}) {
      cases.push_back({{{40.0, k, 5000.0}}, rho});
    }
  }
  for (int k : {9, 16, 20, 24}) {
    for (double rho : {0.1, 0.3, 0.6}) {
      cases.push_back({{{40.0, k, 5000.0}, {40.0, k + 1, 4000.0}}, rho});
    }
  }
  ASSERT_EQ(cases.size(), 36u);
  for (const auto& [servers, rho] : cases) {
    const std::string where = "K=" + std::to_string(servers[0].erlang_k) +
                              " servers=" + std::to_string(servers.size()) +
                              " rho=" + std::to_string(rho);
    const MultiServerDownstreamModel m{servers, capacity_for(servers, rho)};
    EXPECT_NEAR(m.rho(), rho, 1e-12) << where;
    expect_complete_wait(m, where);
  }
}

TEST(MultiServer, NearlyEqualRatesArePoleClash) {
  // Two servers whose Erlang rates differ by 1e-9 relative.
  try {
    const MultiServerDownstreamModel m{
        {{40.0, 9, 5000.0}, {40.0, 9, 5000.0 * (1.0 + 1e-9)}}, 10e6};
    ADD_FAILURE() << "model built on confluent poles";
  } catch (const err::SolverFailure& e) {
    EXPECT_EQ(e.error().code, err::SolverErrorCode::kPoleClash) << e.what();
  }
}

TEST(MultiServer, HeterogeneousPoleSearchStopsAtTheRoundingFloor) {
  // One big and four small K = 9 servers: two rate groups, 18 poles.
  // The Aberth sweeps must end at the rounding floor of g, well before
  // their cap.
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  const double c = 20e6;
  const double total = 0.5 * c * 0.040 / 8.0;
  std::vector<GameServerSpec> servers{{40.0, 9, 0.6 * total}};
  for (int i = 0; i < 4; ++i) servers.push_back({40.0, 9, 0.1 * total});
  const MultiServerDownstreamModel model{servers, c};
  EXPECT_NEAR(model.packet_delay_quantile_ms(1e-5), 95.83894021, 1e-6);
#ifndef FPSQ_NO_METRICS
  bool seen = false;
  for (const auto& h : reg.snapshot().histograms) {
    if (h.name == "queueing.mg1_erlang.aberth.iterations") {
      seen = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_LT(h.max, 20.0);
    }
  }
  EXPECT_TRUE(seen);
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
