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
#include "core/mixed_population.h"
#include "core/multi_server.h"
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
  double downstream_quantile_ms = 0.0;
  bool burst_wait_dropped = false;
  /// Solver failed and no fallback was available (or the policy was
  /// kFlag): the delay fields above are zero.
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
  CombinationMethod method = CombinationMethod::kFullInversion;
  UpstreamVariant upstream = UpstreamVariant::kPaperEq14;
  /// What a failed point does to the sweep: kFallbackBound (default)
  /// substitutes the Kingman bound (flagging the point, or just marking
  /// it failed when the bound is unavailable, e.g. rho >= 1); kFlag
  /// always marks failed with zeroed values; kThrow rethrows through the
  /// pool — the pre-robustness abort-the-sweep behaviour.
  err::FailurePolicy on_failure = err::FailurePolicy::kFallbackBound;
};

/// Evaluates the RTT model at every n in spec.n_values, in parallel on
/// the global pool. Results are in spec.n_values order.
[[nodiscard]] std::vector<RttSweepPoint> sweep_rtt_quantiles(
    const RttSweepSpec& spec);

/// A sweep over a regular grid of downlink loads.
struct LoadSweep {
  std::vector<double> loads;          ///< the grid, as requested
  std::vector<RttSweepPoint> points;  ///< one per load, same order
};

/// The load sweep of `fpsq sweep` and the serve "sweep" op: downlink
/// loads step, 2 step, ... below 0.95, stopping before the uplink load
/// reaches 0.999, each evaluated by sweep_rtt_quantiles with the
/// default spec (Kingman fallback on failure).
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
  CombinationMethod method = CombinationMethod::kFullInversion;
  double rho_tol = 1e-4;
  /// kThrow rethrows the first failure through the pool (aborting the
  /// grid); anything else flags the failing cell and keeps going. A
  /// dimensioning bisection has no meaningful bound substitute, so
  /// kFallbackBound behaves like kFlag here.
  err::FailurePolicy on_failure = err::FailurePolicy::kFlag;
};

/// Runs dimension_for_rtt_checked over the ks x bounds grid in parallel
/// (one task per cell; each bisection reuses canonical cache entries).
/// Cells are returned row-major: for each k, every bound in order —
/// including failed cells, which keep their grid position.
[[nodiscard]] std::vector<DimensioningCell> dimension_table(
    const DimensioningTableSpec& spec);

/// Quantile summary of one multi-server configuration.
struct MultiServerPoint {
  double rho = 0.0;
  double mean_burst_wait_ms = 0.0;
  double burst_wait_quantile_ms = 0.0;
  std::vector<double> per_server_quantile_ms;  ///< tagged-packet, per server
  double mixed_quantile_ms = 0.0;              ///< burst-rate-weighted mix
};

/// Builds and evaluates one MultiServerDownstreamModel per config, in
/// parallel (construction dominates: one root find per server class).
[[nodiscard]] std::vector<MultiServerPoint> evaluate_multi_server(
    const std::vector<std::vector<GameServerSpec>>& configs,
    double bottleneck_bps, double epsilon,
    MultiServerDownstreamModel::WaitForm wait_form =
        MultiServerDownstreamModel::WaitForm::kAuto);

/// Quantile summary of one mixed-population upstream model.
struct MixedPopulationPoint {
  double rho = 0.0;
  double mean_wait_ms = 0.0;
  double wait_quantile_ms = 0.0;
};

/// Builds and evaluates one MixedUpstreamModel per population, in
/// parallel.
[[nodiscard]] std::vector<MixedPopulationPoint> mixed_population_quantiles(
    const std::vector<std::vector<GamerClass>>& populations,
    double bottleneck_bps, double epsilon, bool paper_eq14 = true);

}  // namespace fpsq::core
