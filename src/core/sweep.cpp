#include "core/sweep.h"

#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "queueing/bounds.h"

namespace fpsq::core {

namespace {

/// Inverts Kingman's heavy-traffic tail P(W > x) ~ rho e^{-rho x / W}
/// for the epsilon-quantile [s]; zero when the tail never reaches
/// epsilon (rho <= epsilon).
double kingman_quantile(double mean_wait_bound, double rho,
                        double epsilon) {
  if (!(rho > epsilon)) return 0.0;
  return mean_wait_bound / rho * std::log(rho / epsilon);
}

/// Kingman-bound substitute for a failed sweep point: the upstream M/D/1
/// and the downstream burst queue each as a GI/G/1 described by first and
/// second moments, quantiles from the heavy-traffic exponential tail,
/// position delay bounded by the full burst drain time b. Unavailable
/// (nullopt) when the bounds themselves do not apply (rho >= 1, bad
/// parameters).
std::optional<RttSweepPoint> kingman_fallback_point(
    const AccessScenario& scenario, double n, double epsilon) {
  try {
    const double tick_s = scenario.tick_ms * 1e-3;
    const double burst_s =
        8.0 * n * scenario.server_packet_bytes / scenario.bottleneck_bps;
    const double k = static_cast<double>(scenario.erlang_k);
    const queueing::GiG1Moments down{
        tick_s, scenario.tick_jitter_cov * scenario.tick_jitter_cov,
        burst_s, 1.0 / k};
    const queueing::GiG1Moments up{
        tick_s / n, 1.0,
        8.0 * scenario.client_packet_bytes / scenario.bottleneck_bps, 0.0};
    const double w_down = queueing::kingman_mean_wait_bound(down);
    const double w_up = queueing::kingman_mean_wait_bound(up);
    const double rho_down = queueing::gig1_load(down);
    const double rho_up = queueing::gig1_load(up);
    const double q_down = kingman_quantile(w_down, rho_down, epsilon);
    const double q_up = kingman_quantile(w_up, rho_up, epsilon);
    // Position delay: the packet drains within its own burst, so it is
    // bounded by the burst service time b; its mean is (K+1)/(2 beta).
    const double beta = k / burst_s;
    const double pos_mean = (k + 1.0) / (2.0 * beta);
    RttSweepPoint p;
    p.n_clients = n;
    p.rho_up = rho_up;
    p.rho_down = rho_down;
    p.rtt_quantile_ms = scenario.deterministic_rtt_ms() +
                        (q_up + q_down + burst_s) * 1e3;
    p.rtt_mean_ms = scenario.deterministic_rtt_ms() +
                    (w_up + w_down + pos_mean) * 1e3;
    p.fallback_bound = true;
    return p;
  } catch (const std::exception&) {
    return std::nullopt;  // bound inapplicable (e.g. rho >= 1)
  }
}

/// Builds the emitted point for a failed sweep cell: the Kingman bound
/// where it applies, else a failed point with zeroed values.
RttSweepPoint failed_sweep_point(const RttSweepSpec& spec, double n,
                                 const err::SolverError& e) {
  RttSweepPoint p;
  if (auto fb = kingman_fallback_point(spec.scenario, n, spec.epsilon)) {
    p = *std::move(fb);
  }
  if (p.fallback_bound) {
    FPSQ_OBS_COUNT("err.fallback_cells");
  } else {
    p.failed = true;
    p.n_clients = n;
    FPSQ_OBS_COUNT("err.failed_cells");
  }
  p.error = e.code;
  p.error_detail = e.detail;
  return p;
}

}  // namespace

std::vector<RttSweepPoint> sweep_rtt_quantiles(const RttSweepSpec& spec) {
  FPSQ_SPAN("core.sweep_rtt_quantiles");
  spec.scenario.validate();
  const std::size_t n_points = spec.n_values.size();
  std::vector<RttSweepPoint> out(n_points);
  if (n_points == 0) return out;

  par::global_pool().parallel_for(n_points, [&](std::size_t i) {
    const double n = spec.n_values[i];
    const auto created = RttModel::create(spec.scenario, n);
    if (!created.ok()) {
      out[i] = failed_sweep_point(spec, n, created.error());
      return;
    }
    const RttModel& model = created.value();
    RttSweepPoint p;
    p.n_clients = n;
    p.rho_up = model.rho_up();
    p.rho_down = model.rho_down();
    try {
      p.rtt_quantile_ms = model.rtt_quantile_ms(spec.epsilon);
      p.rtt_mean_ms = model.rtt_mean_ms();
    } catch (const err::SolverFailure& ex) {
      // Quantile inversion failed after a successful solve (already
      // recorded at the throw site): degrade this point like a
      // construction failure.
      out[i] = failed_sweep_point(spec, n, ex.error());
      return;
    }
    out[i] = std::move(p);
  });
  return out;
}

LoadSweep sweep_load_grid(const AccessScenario& scenario, double epsilon,
                          double step) {
  LoadSweep sweep;
  RttSweepSpec spec;
  spec.scenario = scenario;
  spec.epsilon = epsilon;
  for (double rho = step; rho < 0.95; rho += step) {
    const double n = scenario.clients_for_downlink_load(rho);
    if (scenario.uplink_load(n) >= 0.999) break;
    sweep.loads.push_back(rho);
    spec.n_values.push_back(n);
  }
  sweep.points = sweep_rtt_quantiles(spec);
  return sweep;
}

std::vector<DimensioningCell> dimension_table(
    const DimensioningTableSpec& spec) {
  FPSQ_SPAN("core.dimension_table");
  spec.scenario.validate();
  const std::size_t n_cells = spec.ks.size() * spec.rtt_bounds_ms.size();
  std::vector<DimensioningCell> cells(n_cells);
  if (n_cells == 0) return cells;
  // One task per cell: a bisection is long enough that finer chunking
  // buys nothing, and cells share canonical cache entries anyway.
  par::global_pool().parallel_for(
      n_cells,
      [&](std::size_t i) {
        const std::size_t ki = i / spec.rtt_bounds_ms.size();
        const std::size_t bi = i % spec.rtt_bounds_ms.size();
        AccessScenario scenario = spec.scenario;
        scenario.erlang_k = spec.ks[ki];
        DimensioningCell cell;
        cell.erlang_k = spec.ks[ki];
        cell.rtt_bound_ms = spec.rtt_bounds_ms[bi];
        auto result = dimension_for_rtt_checked(scenario, cell.rtt_bound_ms,
                                                spec.epsilon);
        if (result.ok()) {
          cell.result = std::move(result).take_or_throw();
        } else {
          cell.failed = true;
          cell.error = result.error().code;
          cell.error_detail = result.error().detail;
          FPSQ_OBS_COUNT("err.failed_cells");
        }
        cells[i] = std::move(cell);
      },
      /*chunk=*/1);
  return cells;
}

}  // namespace fpsq::core
