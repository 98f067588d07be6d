#include "reference/validation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fpsq::core {

sim::GamingScenarioConfig sim_config(const AccessScenario& scenario,
                                     int n_clients,
                                     const ValidationOptions& opt) {
  sim::GamingScenarioConfig cfg;
  cfg.n_clients = n_clients;
  cfg.tick_ms = scenario.tick_ms;
  cfg.client_packet_bytes = scenario.client_packet_bytes;
  cfg.server_packet_bytes = scenario.server_packet_bytes;
  cfg.erlang_k = scenario.erlang_k;
  cfg.tick_jitter_cov = scenario.tick_jitter_cov;
  cfg.uplink_bps = scenario.uplink_bps;
  cfg.downlink_bps = scenario.downlink_bps;
  cfg.bottleneck_bps = scenario.bottleneck_bps;
  cfg.duration_s = opt.duration_s;
  cfg.warmup_s = opt.warmup_s;
  cfg.seed = opt.seed;
  return cfg;
}

ValidationPoint validate_point(const AccessScenario& scenario, int n_clients,
                               const ValidationOptions& opt) {
  scenario.validate();
  if (n_clients < 1) {
    throw std::invalid_argument("validate_point: n_clients >= 1");
  }
  const double eps = 1.0 - opt.quantile_prob;

  // ---- analytic side ----
  const RttModel model{scenario, static_cast<double>(n_clients)};
  const double d_up_s =
      8.0 * scenario.client_packet_bytes / scenario.bottleneck_bps;
  const double d_down_s =
      8.0 * scenario.server_packet_bytes / scenario.bottleneck_bps;

  ValidationPoint p;
  p.rho_down = model.rho_down();
  p.rho_up = model.rho_up();
  p.n_clients = n_clients;
  p.quantile_prob = opt.quantile_prob;
  p.model_up_ms = model.upstream_mgf().quantile(eps) * 1e3;
  // Simulated downstream delay includes the packet's own serialization.
  p.model_down_ms = model.downstream_quantile_ms(eps) + d_down_s * 1e3;
  const double mean_down_s =
      (model.burst_wait_dropped() ? 0.0 : model.burst_wait_mgf().mean()) +
      model.position_mixture().mean();
  p.model_mean_down_ms = (mean_down_s + d_down_s) * 1e3;
  // Model-style RTT without the access-link serializations (the sim taps
  // measure at the bottleneck) — add the same deterministic pieces the
  // simulated model_rtt contains: access uplink + both bottleneck
  // serializations + access downlink.
  const double det_s = 8.0 * scenario.client_packet_bytes /
                           scenario.uplink_bps +
                       d_up_s + d_down_s +
                       8.0 * scenario.server_packet_bytes /
                           scenario.downlink_bps;
  p.model_rtt_ms = model.stochastic_quantile_ms(eps) + det_s * 1e3;

  // ---- simulation side ----
  const auto sim_result =
      sim::run_gaming_scenario(sim_config(scenario, n_clients, opt));

  p.sim_up_ms = sim_result.upstream_wait.exact_quantile(opt.quantile_prob) *
                1e3;
  p.sim_down_ms =
      sim_result.downstream_delay.exact_quantile(opt.quantile_prob) * 1e3;
  p.sim_mean_down_ms = sim_result.downstream_delay.moments().mean() * 1e3;
  p.sim_rtt_ms =
      sim_result.model_rtt.exact_quantile(opt.quantile_prob) * 1e3;
  return p;
}

std::vector<ValidationPoint> validate_sweep(const AccessScenario& scenario,
                                            const std::vector<double>& loads,
                                            const ValidationOptions& opt) {
  std::vector<ValidationPoint> out;
  out.reserve(loads.size());
  for (double rho : loads) {
    const int n = std::max(
        1, static_cast<int>(
               std::floor(scenario.clients_for_downlink_load(rho))));
    out.push_back(validate_point(scenario, n, opt));
  }
  return out;
}

}  // namespace fpsq::core
