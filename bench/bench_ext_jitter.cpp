// Extension E3 — tick-jitter robustness: the paper's analytic model
// assumes deterministic server ticks; real servers jitter (the UT2003
// trace: tick CoV 0.07). Two referees per jitter level:
//  * the packet-level simulation with Gamma-jittered ticks;
//  * the *exact* GI/E_K/1 generalization (queueing/giek1.h) with the
//    same Gamma interarrival law, evaluated through core::RttModel with
//    tick_jitter_cov set — what `fpsq rtt --jitter` runs.
#include <cstdio>

#include "bench_util.h"
#include "core/rtt_model.h"
#include "sim/gaming_scenario.h"

int main() {
  using namespace fpsq;
  bench::header("Extension E3",
                "tick jitter: Det-tick model vs exact GI/E_K/1 vs "
                "simulation (99.9% downstream delay, K = 9, rho_d = 0.6)");
  bench::JsonReport jr{"ext_jitter"};

  core::AccessScenario s;
  s.tick_ms = 40.0;
  s.erlang_k = 9;
  const int n = static_cast<int>(s.clients_for_downlink_load(0.6));
  const double own_ser_ms =
      8.0 * s.server_packet_bytes / s.bottleneck_bps * 1e3;
  // 99.9% downstream delay of the model at tick CoV `cov` (0 = the
  // paper's deterministic ticks).
  const auto model_q_ms = [&s, n, own_ser_ms](double cov) {
    core::AccessScenario jittered = s;
    jittered.tick_jitter_cov = cov;
    const core::RttModel model{jittered, static_cast<double>(n)};
    return model.downstream_quantile_ms(1e-3) + own_ser_ms;
  };
  const double det_q = model_q_ms(0.0);

  sim::GamingScenarioConfig cfg;
  cfg.n_clients = n;
  cfg.tick_ms = s.tick_ms;
  cfg.erlang_k = s.erlang_k;
  cfg.duration_s = 400.0;
  cfg.warmup_s = 5.0;
  cfg.seed = 77;

  std::printf("Det-tick model: %.2f ms\n\n", det_q);
  std::printf("%10s %18s %18s %12s\n", "tick CoV", "GI/E_K/1 [ms]",
              "simulated [ms]", "sim/exact");
  for (double cov : {0.0, 0.03, 0.07, 0.15, 0.3, 0.5}) {
    const double model_q = model_q_ms(cov);
    cfg.tick_jitter_cov = cov;
    const auto r = sim::run_gaming_scenario(cfg);
    const double sim_q = r.downstream_delay.exact_quantile(0.999) * 1e3;
    std::printf("%10.2f %18.2f %18.2f %12.2f\n", cov, model_q, sim_q,
                sim_q / model_q);
    if (cov == 0.07) {
      jr.metric("model_q_ms_cov007", model_q);
      jr.metric("sim_q_ms_cov007", sim_q);
      jr.metric("sim_over_model_cov007", sim_q / model_q);
    }
  }
  bench::footnote(
      "The Det-tick model stays accurate through the measured CoV 0.07;"
      " beyond it, the exact GI/E_K/1 generalization (gamma-jittered"
      " ticks) keeps tracking the simulation where the paper's"
      " deterministic assumption no longer does.");
  return 0;
}
