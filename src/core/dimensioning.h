// Dimensioning (Section 4): given a quantile bound on the RTT, find the
// largest tolerable load on the aggregation link and the corresponding
// number of gamers N_max = rho_max C T / (8 P_S) (eq. 37).
#pragma once

#include "core/rtt_model.h"
#include "err/error.h"

namespace fpsq::core {

struct DimensioningResult {
  double rho_max = 0.0;       ///< largest admissible downlink load
  double n_max = 0.0;         ///< gamers at rho_max (eq. 37), fractional
  int n_max_int = 0;          ///< floor(n_max)
  double rtt_at_max_ms = 0.0; ///< RTT quantile at rho_max
};

/// Finds the largest downlink load whose epsilon-RTT-quantile stays below
/// `rtt_bound_ms`. The RTT quantile is monotone in the load, so a
/// bisection on rho in (0, rho_stability) suffices; it stops once the
/// bracket is narrower than 1e-4 in load.
///
/// Each probed load builds its RttModel (and its precompiled tail
/// kernels) exactly once; all tail evaluations of that probe's quantile
/// Newton solve then reuse the same kernel. Savings are visible in the
/// queueing.kernel.tail_evals counter.
///
/// @param epsilon        tail probability (paper: 1e-5)
/// @param rtt_bound_ms   e.g. 50 ms = "excellent game play" per [11]
/// @throws std::invalid_argument / err::SolverFailure — thin wrapper over
///         dimension_for_rtt_checked()
[[nodiscard]] DimensioningResult dimension_for_rtt(
    const AccessScenario& scenario, double rtt_bound_ms, double epsilon);

/// Non-throwing variant: any solver failure at any probed load surfaces
/// as the structured error instead of unwinding through the bisection
/// (the serve engine's dimension op answers it with the error's code).
[[nodiscard]] err::Result<DimensioningResult> dimension_for_rtt_checked(
    const AccessScenario& scenario, double rtt_bound_ms, double epsilon);

}  // namespace fpsq::core
