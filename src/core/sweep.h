// The load sweep behind the serve "sweep" op (and so `fpsq sweep`): one
// independent RTT model per downlink load of a regular grid, evaluated
// in parallel on the global pool (Figures 3-4 shape).
//
// Determinism contract (matching par::ThreadPool): points come back in
// grid order and are bit-identical at any thread count. Every point is
// an independent evaluation whose solvers come from the exact-keyed
// cache, so a result never depends on which other points ran before it.
#pragma once

#include <vector>

#include "core/scenario.h"
#include "err/error.h"

namespace fpsq::core {

/// One evaluated load point: the exact answer, or the structured error
/// of its solve with both delays zero. Other points are unaffected.
struct RttSweepPoint {
  double load = 0.0;  ///< downlink load, as the grid requested it
  double n_clients = 0.0;
  double rtt_quantile_ms = 0.0;  ///< epsilon-quantile of the full RTT
  double rtt_mean_ms = 0.0;
  err::SolverError error;  ///< code kNone for an exact point

  [[nodiscard]] bool failed() const noexcept {
    return error.code != err::SolverErrorCode::kNone;
  }
};

/// Downlink loads step, 2 step, ... below 0.95, stopping before the
/// uplink load reaches 0.999; one point per load, in grid order. A failed
/// point counts `err.failed_cells`.
[[nodiscard]] std::vector<RttSweepPoint> sweep_load_grid(
    const AccessScenario& scenario, double epsilon, double step);

}  // namespace fpsq::core
