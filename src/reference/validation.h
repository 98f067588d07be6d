// Model-vs-simulation harness: runs the packet-level scenario and the
// analytic model on identical parameters and reports side-by-side delay
// quantiles. The paper validates its model only through limiting
// arguments; this harness provides the missing empirical check.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rtt_model.h"
#include "sim/gaming_scenario.h"

namespace fpsq::core {

struct ValidationPoint {
  double rho_down = 0.0;
  double rho_up = 0.0;
  int n_clients = 0;
  double quantile_prob = 0.0;  ///< e.g. 0.999

  // Upstream waiting time at the aggregation queue [ms].
  double model_up_ms = 0.0;
  double sim_up_ms = 0.0;
  // Downstream delay: burst wait + position + own serialization [ms].
  double model_down_ms = 0.0;
  double sim_down_ms = 0.0;
  // Model-style RTT (all queueing + serialization, no tick wait) [ms].
  double model_rtt_ms = 0.0;
  double sim_rtt_ms = 0.0;

  double sim_mean_down_ms = 0.0;
  double model_mean_down_ms = 0.0;
};

struct ValidationOptions {
  double quantile_prob = 0.999;  ///< sim-measurable quantile
  double duration_s = 300.0;
  double warmup_s = 5.0;
  std::uint64_t seed = 1;
};

/// The packet-level simulator's configuration for the scenario at
/// `n_clients` over opt's duration, warm-up and seed: the one mapping of
/// an AccessScenario onto sim::GamingScenarioConfig, shared by
/// validate_point and `fpsq validate --reps`.
[[nodiscard]] sim::GamingScenarioConfig sim_config(
    const AccessScenario& scenario, int n_clients,
    const ValidationOptions& opt);

/// One comparison point at the scenario's parameters and client count.
[[nodiscard]] ValidationPoint validate_point(const AccessScenario& scenario,
                                             int n_clients,
                                             const ValidationOptions& opt);

/// Sweep over downlink loads (clients chosen via eq. 37, rounded down).
[[nodiscard]] std::vector<ValidationPoint> validate_sweep(
    const AccessScenario& scenario, const std::vector<double>& loads,
    const ValidationOptions& opt);

}  // namespace fpsq::core
