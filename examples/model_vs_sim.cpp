// Model vs simulation: runs the analytic RTT model and the packet-level
// discrete-event simulation on the same scenario and prints the delay
// quantiles side by side — the empirical check the paper leaves to
// limiting arguments.
//
//   $ ./model_vs_sim [erlang_k] [duration_s]
#include <cstdio>
#include <cstdlib>

#include "reference/validation.h"

int main(int argc, char** argv) {
  using namespace fpsq::core;

  const int k = argc > 1 ? std::atoi(argv[1]) : 9;
  const double duration = argc > 2 ? std::atof(argv[2]) : 240.0;
  if (k < 2 || !(duration > 10.0)) {
    std::fprintf(stderr, "need erlang_k >= 2 and duration > 10 s\n");
    return 1;
  }

  AccessScenario s;
  s.server_packet_bytes = 125.0;
  s.tick_ms = 60.0;
  s.erlang_k = k;

  ValidationOptions opt;
  opt.quantile_prob = 0.999;
  opt.duration_s = duration;

  std::printf("Analytic model vs discrete-event simulation "
              "(K = %d, 99.9%% quantiles, %.0f s simulated)\n\n",
              k, duration);
  std::printf("%6s %5s | %19s | %21s | %19s\n", "load", "N",
              "upstream wait [ms]", "downstream delay [ms]",
              "model-RTT [ms]");
  std::printf("%6s %5s | %9s %9s | %10s %10s | %9s %9s\n", "", "",
              "model", "sim", "model", "sim", "model", "sim");
  for (double rho : {0.2, 0.4, 0.6, 0.8}) {
    const auto p = validate_point(
        s,
        static_cast<int>(s.clients_for_downlink_load(rho)), opt);
    std::printf("%5.0f%% %5d | %9.3f %9.3f | %10.2f %10.2f | %9.2f %9.2f\n",
                100.0 * p.rho_down, p.n_clients, p.model_up_ms,
                p.sim_up_ms, p.model_down_ms, p.sim_down_ms,
                p.model_rtt_ms, p.sim_rtt_ms);
  }
  return 0;
}
