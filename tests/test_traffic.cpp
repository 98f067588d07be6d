#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "dist/dist.h"
#include "trace/analyzer.h"
#include "traffic/client_source.h"
#include "traffic/game_profiles.h"
#include "traffic/server_source.h"
#include "traffic/synthetic.h"

namespace fpsq::traffic {
namespace {

using trace::Direction;

PeriodicStreamModel det_stream(double iat_ms, double size_bytes) {
  return {std::make_shared<dist::Deterministic>(iat_ms),
          std::make_shared<dist::Deterministic>(size_bytes)};
}

TEST(ClientSource, DeterministicPeriodicity) {
  ClientSource src{{det_stream(40.0, 80.0)}, 3, 0.0, dist::Rng{1}};
  double prev = -1.0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(src.next_time(),
                     src.next_time());  // peek is stable
    const auto r = src.pop();
    EXPECT_EQ(r.size_bytes, 80u);
    EXPECT_EQ(r.flow_id, 3);
    EXPECT_EQ(r.direction, Direction::kClientToServer);
    if (prev >= 0.0) {
      EXPECT_NEAR(r.time_s - prev, 0.040, 1e-12);
    }
    prev = r.time_s;
  }
}

TEST(ClientSource, PhaseIsWithinOnePeriod) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ClientSource src{{det_stream(40.0, 80.0)}, 0, 0.0, dist::Rng{seed}};
    EXPECT_GE(src.next_time(), 0.0);
    EXPECT_LT(src.next_time(), 0.040);
  }
}

TEST(ClientSource, TwoStreamsInterleave) {
  // Halo-style: 201 ms + 50 ms streams; over 1 s expect ~5 + ~20 packets.
  ClientSource src{{det_stream(201.0, 72.0), det_stream(50.0, 100.0)}, 0,
                   0.0, dist::Rng{7}};
  int small = 0, big = 0;
  while (src.next_time() < 1.0) {
    const auto r = src.pop();
    (r.size_bytes == 72 ? small : big) += 1;
  }
  EXPECT_NEAR(small, 5, 1);
  EXPECT_NEAR(big, 20, 1);
}

TEST(ClientSource, GuardsConstruction) {
  EXPECT_THROW(
      (ClientSource{{}, 0, 0.0, dist::Rng{1}}), std::invalid_argument);
  EXPECT_THROW((ClientSource{{{nullptr, nullptr}}, 0, 0.0, dist::Rng{1}}),
               std::invalid_argument);
}

TEST(ServerSource, BurstStructurePerPacketIid) {
  ServerTrafficModel m;
  m.burst_iat_ms = std::make_shared<dist::Deterministic>(50.0);
  m.mode = ServerTrafficModel::SizeMode::kPerPacketIid;
  m.packet_size_bytes = std::make_shared<dist::Deterministic>(120.0);
  m.shuffle_order = false;
  ServerSource src{m, 4, 0.0, dist::Rng{2}};
  const auto burst = src.pop_burst();
  ASSERT_EQ(burst.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(burst[i].size_bytes, 120u);
    EXPECT_EQ(burst[i].flow_id, i);
    EXPECT_EQ(burst[i].burst_id, 0u);
    EXPECT_EQ(burst[i].direction, Direction::kServerToClient);
  }
  // Back-to-back spacing: 120 B at 100 Mb/s = 9.6 us.
  EXPECT_NEAR(burst[1].time_s - burst[0].time_s, 9.6e-6, 1e-12);
  const auto burst2 = src.pop_burst();
  EXPECT_EQ(burst2.front().burst_id, 1u);
  EXPECT_NEAR(burst2.front().time_s - burst.front().time_s, 0.050, 1e-9);
}

TEST(ServerSource, BurstTotalModeScalesWithClients) {
  ServerTrafficModel m;
  m.burst_iat_ms = std::make_shared<dist::Deterministic>(50.0);
  m.mode = ServerTrafficModel::SizeMode::kBurstTotal;
  m.burst_total_bytes = std::make_shared<dist::Deterministic>(1200.0);
  m.nominal_clients = 12;
  m.within_burst_cov = 0.0;
  ServerSource src{m, 6, 0.0, dist::Rng{3}};  // half the nominal count
  const auto burst = src.pop_burst();
  ASSERT_EQ(burst.size(), 6u);
  std::uint64_t total = 0;
  for (const auto& p : burst) total += p.size_bytes;
  EXPECT_NEAR(static_cast<double>(total), 600.0, 6.0);  // rounding slack
  // Equal split when within-burst CoV is 0.
  EXPECT_EQ(burst.front().size_bytes, burst.back().size_bytes);
}

TEST(ServerSource, ShuffleCoversAllClients) {
  ServerTrafficModel m;
  m.burst_iat_ms = std::make_shared<dist::Deterministic>(50.0);
  m.packet_size_bytes = std::make_shared<dist::Deterministic>(100.0);
  m.shuffle_order = true;
  ServerSource src{m, 8, 0.0, dist::Rng{4}};
  const auto burst = src.pop_burst();
  std::uint32_t mask = 0;
  for (const auto& p : burst) mask |= 1u << p.flow_id;
  EXPECT_EQ(mask, 0xFFu);  // each client exactly once
}

TEST(ServerSource, GuardsConfig) {
  ServerTrafficModel m;  // burst IAT missing
  EXPECT_THROW((ServerSource{m, 4, 0.0, dist::Rng{1}}),
               std::invalid_argument);
  m.burst_iat_ms = std::make_shared<dist::Deterministic>(50.0);
  EXPECT_THROW((ServerSource{m, 0, 0.0, dist::Rng{1}}),
               std::invalid_argument);
  EXPECT_THROW((ServerSource{m, 4, 0.0, dist::Rng{1}}),
               std::invalid_argument);  // no size law for iid mode
}

TEST(GameProfiles, AllProfilesAreWellFormed) {
  for (const auto& p : {counter_strike(), half_life(), quake3(12), halo(12),
                        unreal_tournament(12)}) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.citation.empty());
    EXPECT_FALSE(p.client_streams.empty());
    EXPECT_TRUE(p.server.burst_iat_ms != nullptr);
    EXPECT_GT(p.nominal_tick_ms, 0.0);
    EXPECT_GT(p.nominal_client_packet_bytes, 0.0);
    EXPECT_GT(p.nominal_server_packet_bytes, 0.0);
  }
}

TEST(GameProfiles, CounterStrikeMatchesTable1Laws) {
  const auto p = counter_strike();
  // Client: Det(40) IAT, Ext(80, 5.7) sizes.
  EXPECT_NEAR(p.client_streams[0].iat_ms->mean(), 40.0, 1e-12);
  EXPECT_NEAR(p.client_streams[0].iat_ms->variance(), 0.0, 1e-12);
  EXPECT_NEAR(p.client_streams[0].size_bytes->mean(),
              80.0 + 0.5772156649 * 5.7, 1e-6);
  // Server: Ext(55, 6) burst IAT, Ext(120, 36) sizes.
  EXPECT_NEAR(p.server.burst_iat_ms->mean(), 55.0 + 0.5772156649 * 6.0,
              1e-6);
  EXPECT_NEAR(p.server.packet_size_bytes->mean(),
              120.0 + 0.5772156649 * 36.0, 1e-6);
}

TEST(GameProfiles, HaloHasTwoClientStreams) {
  const auto p = halo(8);
  EXPECT_EQ(p.client_streams.size(), 2u);
  EXPECT_THROW(halo(0), std::invalid_argument);
}

TEST(GameProfiles, UnrealBurstLawMatchesTable3Moments) {
  const auto p = unreal_tournament(12);
  ASSERT_TRUE(p.server.burst_total_bytes != nullptr);
  EXPECT_NEAR(p.server.burst_total_bytes->mean(), 1852.0, 1e-6);
  EXPECT_NEAR(p.server.burst_total_bytes->cov(), 0.19, 0.005);
}

TEST(Synthetic, GeneratesMergedOrderedTrace) {
  SyntheticTraceOptions opt;
  opt.clients = 4;
  opt.duration_s = 10.0;
  const auto t = generate_trace(counter_strike(), opt);
  EXPECT_GT(t.size(), 100u);
  double prev = 0.0;
  for (const auto& r : t.records()) {
    EXPECT_GE(r.time_s, prev);
    prev = r.time_s;
  }
  EXPECT_EQ(t.flow_count(Direction::kClientToServer), 4u);
  EXPECT_EQ(t.flow_count(Direction::kServerToClient), 4u);
}

TEST(Synthetic, ReproducibleForSeed) {
  SyntheticTraceOptions opt;
  opt.clients = 3;
  opt.duration_s = 5.0;
  opt.seed = 99;
  const auto a = generate_trace(half_life(), opt);
  const auto b = generate_trace(half_life(), opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records()[i].time_s, b.records()[i].time_s);
    EXPECT_EQ(a.records()[i].size_bytes, b.records()[i].size_bytes);
  }
}

TEST(Synthetic, GuardsOptions) {
  SyntheticTraceOptions opt;
  opt.clients = 0;
  EXPECT_THROW(generate_trace(counter_strike(), opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::traffic
