#include "reference/validation.h"

#include <gtest/gtest.h>

namespace fpsq::core {
namespace {

TEST(Validation, ModelTracksSimulationAtModerateLoad) {
  AccessScenario s;
  s.server_packet_bytes = 125.0;
  s.tick_ms = 60.0;
  s.erlang_k = 9;
  ValidationOptions opt;
  opt.quantile_prob = 0.99;
  opt.duration_s = 120.0;
  opt.seed = 3;
  const auto p = validate_point(s, 150, opt);  // rho_d = 0.5
  EXPECT_NEAR(p.rho_down, 0.5, 1e-12);
  // Downstream 99% quantile within 15%.
  EXPECT_NEAR(p.model_down_ms / p.sim_down_ms, 1.0, 0.15);
  // Downstream mean within 10%.
  EXPECT_NEAR(p.model_mean_down_ms / p.sim_mean_down_ms, 1.0, 0.10);
  // Upstream is sub-millisecond here; compare loosely.
  EXPECT_NEAR(p.model_up_ms, p.sim_up_ms, 0.5);
  // Model-style RTT within 25% (sim pairs correlated legs).
  EXPECT_NEAR(p.model_rtt_ms / p.sim_rtt_ms, 1.0, 0.25);
}

TEST(Validation, SweepCoversRequestedLoads) {
  AccessScenario s;
  s.erlang_k = 9;
  ValidationOptions opt;
  opt.quantile_prob = 0.99;
  opt.duration_s = 30.0;
  const auto pts = validate_sweep(s, {0.2, 0.4}, opt);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_LT(pts[0].rho_down, pts[1].rho_down);
  EXPECT_LT(pts[0].sim_down_ms, pts[1].sim_down_ms);
  EXPECT_LT(pts[0].model_down_ms, pts[1].model_down_ms);
}

TEST(Validation, SimConfigCarriesTheScenario) {
  AccessScenario s;
  s.client_packet_bytes = 70.0;
  s.server_packet_bytes = 140.0;
  s.tick_ms = 50.0;
  s.erlang_k = 7;
  s.tick_jitter_cov = 0.07;
  s.uplink_bps = 256e3;
  s.downlink_bps = 2048e3;
  s.bottleneck_bps = 4e6;
  ValidationOptions opt;
  opt.duration_s = 42.0;
  opt.warmup_s = 3.0;
  opt.seed = 11;
  const sim::GamingScenarioConfig cfg = sim_config(s, 33, opt);
  EXPECT_EQ(cfg.n_clients, 33);
  EXPECT_EQ(cfg.tick_ms, s.tick_ms);
  EXPECT_EQ(cfg.client_packet_bytes, s.client_packet_bytes);
  EXPECT_EQ(cfg.server_packet_bytes, s.server_packet_bytes);
  EXPECT_EQ(cfg.erlang_k, s.erlang_k);
  EXPECT_EQ(cfg.tick_jitter_cov, s.tick_jitter_cov);
  EXPECT_EQ(cfg.uplink_bps, s.uplink_bps);
  EXPECT_EQ(cfg.downlink_bps, s.downlink_bps);
  EXPECT_EQ(cfg.bottleneck_bps, s.bottleneck_bps);
  EXPECT_EQ(cfg.duration_s, opt.duration_s);
  EXPECT_EQ(cfg.warmup_s, opt.warmup_s);
  EXPECT_EQ(cfg.seed, opt.seed);
  // The simulator offers the loads the model is solved at.
  EXPECT_DOUBLE_EQ(sim::downlink_load(cfg), s.downlink_load(33));
  EXPECT_DOUBLE_EQ(sim::uplink_load(cfg), s.uplink_load(33));
}

TEST(Validation, GuardsArguments) {
  AccessScenario s;
  ValidationOptions opt;
  EXPECT_THROW(validate_point(s, 0, opt), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::core
