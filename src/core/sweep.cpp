#include "core/sweep.h"

#include <cstddef>

#include "core/rtt_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace fpsq::core {

namespace {

/// Fills one point's delays, or its error with both delays left zero.
void evaluate(RttSweepPoint& p, const AccessScenario& scenario,
              double epsilon) {
  const auto created = RttModel::create(scenario, p.n_clients);
  try {
    if (created.ok()) {
      p.rtt_quantile_ms = created.value().rtt_quantile_ms(epsilon);
      p.rtt_mean_ms = created.value().rtt_mean_ms();
      return;
    }
    p.error = created.error();
  } catch (const err::SolverFailure& ex) {
    // The inversion failed after a successful solve (already recorded
    // at the throw site).
    p.error = ex.error();
  }
  FPSQ_OBS_COUNT("err.failed_cells");
}

}  // namespace

std::vector<RttSweepPoint> sweep_load_grid(const AccessScenario& scenario,
                                           double epsilon, double step) {
  FPSQ_SPAN("core.sweep_load_grid");
  scenario.validate();
  std::vector<RttSweepPoint> points;
  for (double rho = step; rho < 0.95; rho += step) {
    const double n = scenario.clients_for_downlink_load(rho);
    if (scenario.uplink_load(n) >= 0.999) break;
    RttSweepPoint& p = points.emplace_back();
    p.load = rho;
    p.n_clients = n;
  }
  par::global_pool().parallel_for(points.size(), [&](std::size_t i) {
    evaluate(points[i], scenario, epsilon);
  });
  return points;
}

}  // namespace fpsq::core
