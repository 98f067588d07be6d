#include "core/dimensioning.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace fpsq::core {

namespace {

/// Width of the final load bracket of the bisection.
constexpr double kRhoTol = 1e-4;

}  // namespace

DimensioningResult dimension_for_rtt(const AccessScenario& scenario,
                                     double rtt_bound_ms, double epsilon) {
  return dimension_for_rtt_checked(scenario, rtt_bound_ms, epsilon)
      .take_or_throw();
}

err::Result<DimensioningResult> dimension_for_rtt_checked(
    const AccessScenario& scenario, double rtt_bound_ms, double epsilon) {
  try {
    scenario.validate();
  } catch (const std::exception& ex) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            ex.what()};
  }
  if (!(rtt_bound_ms > 0.0) || !(epsilon > 0.0 && epsilon < 1.0)) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "dimension_for_rtt: bad bound or epsilon"};
  }
  if (scenario.deterministic_rtt_ms() >= rtt_bound_ms) {
    // Even an unloaded network misses the bound.
    return DimensioningResult{0.0, 0.0, 0,
                              scenario.deterministic_rtt_ms()};
  }

  // Each probe builds its model (solver + tail kernels) exactly once;
  // the quantile's Newton evaluations then all hit the same precompiled
  // kernel.
  auto rtt_at_load = [&](double rho) -> err::Result<double> {
    const auto created =
        RttModel::create(scenario, scenario.clients_for_downlink_load(rho));
    if (!created.ok()) return created.error();
    try {
      return created.value().rtt_quantile_ms(epsilon);
    } catch (const err::SolverFailure& ex) {
      // Inversion failure, already recorded at the throw site.
      return ex.error();
    } catch (const std::exception& ex) {
      // Quantile evaluation failed after a successful solve.
      const err::SolverError e{
          err::SolverErrorCode::kNonConvergence,
          std::string("dimension_for_rtt quantile: ") + ex.what()};
      err::record_failure(e);
      return e;
    }
  };

  // Stability ceiling: both directions must stay below load 1.
  const double up_per_down =
      scenario.client_packet_bytes / scenario.server_packet_bytes;
  const double rho_ceil = std::min(1.0, 1.0 / up_per_down) - 1e-6;

  double lo = 0.0;   // feasible
  double hi = rho_ceil;
  const auto probe_hi = rtt_at_load(hi);
  if (!probe_hi.ok()) return probe_hi.error();
  const double rtt_at_hi = probe_hi.value();
  if (rtt_at_hi <= rtt_bound_ms) {
    // Bound never binds before instability.
    const double n = scenario.clients_for_downlink_load(hi);
    return DimensioningResult{hi, n, static_cast<int>(std::floor(n)),
                              rtt_at_hi};
  }
  // Ensure a feasible toe-hold exists above zero. Carry the RTT at the
  // feasible end through the whole search: every probe is evaluated
  // exactly once (the seed re-solved the final `lo` and the early-return
  // `hi` a second time, each a full zeta root search).
  double probe = std::min(0.01, 0.5 * rho_ceil);
  auto probed = rtt_at_load(probe);
  if (!probed.ok()) return probed.error();
  double rtt_at_lo = probed.value();
  while (probe > 1e-9 && rtt_at_lo > rtt_bound_ms) {
    probe *= 0.5;
    if (probe > 1e-9) {
      probed = rtt_at_load(probe);
      if (!probed.ok()) return probed.error();
      rtt_at_lo = probed.value();
    }
  }
  if (probe <= 1e-9) {
    return DimensioningResult{0.0, 0.0, 0,
                              scenario.deterministic_rtt_ms()};
  }
  lo = probe;
  while (hi - lo > kRhoTol) {
    const double mid = 0.5 * (lo + hi);
    const auto probe_mid = rtt_at_load(mid);
    if (!probe_mid.ok()) return probe_mid.error();
    const double rtt_at_mid = probe_mid.value();
    if (rtt_at_mid <= rtt_bound_ms) {
      lo = mid;
      rtt_at_lo = rtt_at_mid;
    } else {
      hi = mid;
    }
  }
  DimensioningResult r;
  r.rho_max = lo;
  r.n_max = scenario.clients_for_downlink_load(lo);
  r.n_max_int = static_cast<int>(std::floor(r.n_max + 1e-9));
  r.rtt_at_max_ms = rtt_at_lo;
  return r;
}

}  // namespace fpsq::core
