// A1 — ablation of the Section-3.3 combination methods: exact inversion
// (stable convolution evaluation of eq. 35), dominant-pole approximation,
// Chernoff bound (eq. 36), and the sum-of-quantiles heuristic.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/rtt_model.h"
#include "reference/rtt_approximations.h"

namespace {

/// The paper's sum-of-quantiles shortcut: the three component quantiles
/// of the model's breakdown, added [ms].
double sum_of_quantiles_ms(const fpsq::core::RttModel& m, double epsilon) {
  const auto b = m.breakdown_ms(epsilon);
  return b.upstream_ms + b.burst_ms + b.position_ms;
}

}  // namespace

int main() {
  using namespace fpsq;
  bench::header("Ablation A1",
                "combination methods for the 99.999% stochastic delay "
                "(K = 9, P_S = 125 B, T = 60 ms)");
  bench::JsonReport jr{"ablation_inversion"};

  core::AccessScenario s;
  s.server_packet_bytes = 125.0;
  s.tick_ms = 60.0;
  s.erlang_k = 9;

  std::printf("%8s %10s %12s %10s %14s   [ms]\n", "load", "exact",
              "dom.pole", "Chernoff", "sum-of-quant");
  for (int pct = 10; pct <= 90; pct += 10) {
    const double rho = pct / 100.0;
    const core::RttModel m{s, s.clients_for_downlink_load(rho)};
    const double exact = m.stochastic_quantile_ms(1e-5);
    const double pole = core::dominant_pole_quantile_ms(m, 1e-5);
    const double chern = core::chernoff_quantile_ms(m, 1e-5);
    std::printf("%7d%% %10.2f %12.2f %10.2f %14.2f\n", pct, exact, pole,
                chern, sum_of_quantiles_ms(m, 1e-5));
    if (pct == 50) {
      jr.metric("exact_q_ms_load50", exact);
      jr.metric("dompole_rel_err_load50", std::abs(pole - exact) / exact);
      jr.metric("chernoff_rel_err_load50",
                std::abs(chern - exact) / exact);
    }
  }
  bench::footnote(
      "Dominant-pole overshoots at low load where its residue is huge"
      " (the paper's caveat that the method needs a well-behaved residue);"
      " it converges to exact at high load. Chernoff and sum-of-quantiles"
      " are conservative everywhere, by a bounded factor.");

  std::printf("\nSame at K = 20 (the regime where the naive expanded"
              " partial fractions of eq. 35 lose all precision):\n");
  s.erlang_k = 20;
  std::printf("%8s %10s %12s %10s %14s   [ms]\n", "load", "exact",
              "dom.pole", "Chernoff", "sum-of-quant");
  for (int pct = 10; pct <= 90; pct += 20) {
    const double rho = pct / 100.0;
    const core::RttModel m{s, s.clients_for_downlink_load(rho)};
    std::printf("%7d%% %10.2f %12.2f %10.2f %14.2f\n", pct,
                m.stochastic_quantile_ms(1e-5),
                core::dominant_pole_quantile_ms(m, 1e-5),
                core::chernoff_quantile_ms(m, 1e-5),
                sum_of_quantiles_ms(m, 1e-5));
  }
  return 0;
}
