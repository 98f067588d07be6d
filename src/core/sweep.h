// Batch drivers for the sweep-shaped analyses: every table and figure of
// the paper is a grid of independent model evaluations, so all of them
// parallelize over fpsq::par and share solutions through
// queueing::SolverCache.
//
// Determinism contract (matching par::ThreadPool): each driver returns
// results in input order and is bit-identical at any thread count. Every
// point is an independent evaluation whose solvers come from the
// exact-keyed cache, so a result never depends on which other points
// ran before it.
#pragma once

#include <string>
#include <vector>

#include "core/dimensioning.h"
#include "core/rtt_model.h"
#include "core/scenario.h"
#include "err/error.h"

namespace fpsq::core {

/// One evaluated load point of an RTT sweep (Figures 3-4 shape).
struct RttSweepPoint {
  double n_clients = 0.0;
  double rho_up = 0.0;
  double rho_down = 0.0;
  double rtt_quantile_ms = 0.0;  ///< epsilon-quantile of the full RTT
  double rtt_mean_ms = 0.0;
  /// Solver failed and the Kingman bound does not apply either (e.g.
  /// rho >= 1): the delay fields above are zero.
  bool failed = false;
  /// Solver failed but the delay fields hold the Kingman/heavy-traffic
  /// bound from queueing/bounds instead of the exact transform solution.
  bool fallback_bound = false;
  err::SolverErrorCode error = err::SolverErrorCode::kNone;
  std::string error_detail;
};

struct RttSweepSpec {
  AccessScenario scenario;
  std::vector<double> n_values;  ///< client counts, any order
  double epsilon = 1e-5;
};

/// Evaluates the RTT model at every n in spec.n_values, in parallel on
/// the global pool. Results are in spec.n_values order. A point whose
/// solver fails never aborts the sweep: it carries the Kingman bound
/// (fallback_bound), or is marked failed when the bound does not apply.
[[nodiscard]] std::vector<RttSweepPoint> sweep_rtt_quantiles(
    const RttSweepSpec& spec);

/// A sweep over a regular grid of downlink loads.
struct LoadSweep {
  std::vector<double> loads;          ///< the grid, as requested
  std::vector<RttSweepPoint> points;  ///< one per load, same order
};

/// The load sweep of the serve "sweep" op (and so of `fpsq sweep`):
/// downlink loads step, 2 step, ... below 0.95, stopping before the
/// uplink load reaches 0.999, each evaluated by sweep_rtt_quantiles.
[[nodiscard]] LoadSweep sweep_load_grid(const AccessScenario& scenario,
                                        double epsilon, double step);

/// One cell of the Table-4 dimensioning grid.
struct DimensioningCell {
  int erlang_k = 0;
  double rtt_bound_ms = 0.0;
  DimensioningResult result;
  /// Solver failure inside this cell's bisection: result is zeroed, the
  /// error identifies why. Other cells are unaffected.
  bool failed = false;
  err::SolverErrorCode error = err::SolverErrorCode::kNone;
  std::string error_detail;
};

struct DimensioningTableSpec {
  AccessScenario scenario;  ///< base; erlang_k is overridden per cell
  std::vector<int> ks;
  std::vector<double> rtt_bounds_ms;
  double epsilon = 1e-5;
};

/// Runs dimension_for_rtt_checked over the ks x bounds grid in parallel
/// (one task per cell; each bisection reuses canonical cache entries).
/// Cells are returned row-major: for each k, every bound in order. A
/// cell whose solver fails is flagged and keeps its grid position; a
/// bisection has no bound to substitute.
[[nodiscard]] std::vector<DimensioningCell> dimension_table(
    const DimensioningTableSpec& spec);

}  // namespace fpsq::core
