// fpsq::check — the differential + property-based self-check subsystem
// behind `fpsq check` (docs/CHECKING.md).
//
// The paper's pipeline computes the same tail quantity along several
// independent paths: the transform-domain pole expansion evaluated
// directly (ErlangMixMgf), the compiled SoA tail kernels that replaced
// it on hot paths (queueing::TailKernel), the adaptive-quadrature
// convolution oracle (reference/convolution.h), event-driven simulation,
// and the batched serving engine that wraps them all. Silent divergence
// between any two of those paths is the worst failure mode of a
// production deployment, so this harness cross-evaluates them over a
// seeded corpus of admissible parameter points and reports every
// disagreement above a per-path-pair tolerance as a structured,
// reproducible mismatch record.
//
// Path pairs (tolerance ladder in docs/CHECKING.md):
//   kernel_vs_mgf      compiled TailKernel vs direct pole-sum tails
//   kernel_vs_oracle   compiled convolved kernel vs adaptive quadrature
//   round_trip         tail(quantile(epsilon)) ~ epsilon
//   analytic_vs_sim    model quantile vs replicated-simulation CI
//   serve_vs_cold      batched serve response vs cold one-shot (bytes)
//   solver_health      an admissible point failed to solve (err code)
//   breakdown_bounds   total vs component quantiles (dominance, union
//                      bound, monotone in epsilon)
//   load_monotone      the RTT quantile does not fall as the load grows
//   dimension_bracket  dimension_for_rtt at the point's own RTT quantile
//                      brackets the point's load and grows with the bound
//   sweep_grid         the serve sweep op's load grid: RTT quantile not
//                      falling along it, each point equal to the rtt op
//                      (a failed grid point is a solver_health finding)
//   mek1_two_ways      M/E_K/1 at K and 2K: the multi-server wait's
//                      all-pole search vs GiEk1Solver on Poisson arrivals
//   mixed_split        a mixed upstream population of two identical
//                      halves vs one class of all the gamers
//
// Determinism contract: run_check() evaluates points with
// par::parallel_map and aggregates in index order, every point derives
// from (seed, index) alone, and the text report carries no timing — so
// the report is bit-identical from --threads 1 to --threads 64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/generator.h"

namespace fpsq::check {

enum class PathPair {
  kKernelVsMgf,
  kKernelVsOracle,
  kRoundTrip,
  kAnalyticVsSim,
  kServeVsCold,
  kSolverHealth,
  kBreakdownBounds,
  kLoadMonotone,
  kDimensionBracket,
  kSweepGrid,
  kMek1TwoWays,
  kMixedSplit,
};

/// Stable wire/report name ("kernel_vs_mgf", ...).
[[nodiscard]] const char* path_pair_name(PathPair pair) noexcept;

/// One verified disagreement. Everything needed to reproduce it is in
/// the record: re-run `fpsq check --seed <seed> --points <index + 1>`
/// and the offending point is the last one evaluated.
struct Mismatch {
  std::size_t point_index = 0;
  std::uint64_t seed = 0;        ///< master seed of the corpus
  std::uint64_t point_seed = 0;  ///< stream seed of the offending point
  PathPair pair = PathPair::kKernelVsMgf;
  double abs_error = 0.0;
  double rel_error = 0.0;
  double tolerance = 0.0;  ///< the combined bound that was exceeded
  std::string detail;      ///< parameters + both values (%.17g)

  /// One deterministic report line.
  [[nodiscard]] std::string to_line() const;
};

/// Warm-up cut from the start of every simulated run of the
/// analytic-vs-simulation corpus [s]; sim_duration_s must exceed it.
inline constexpr double kSimWarmupS = 2.0;

struct CheckOptions {
  std::size_t points = 200;  ///< size of the main differential corpus
  std::uint64_t seed = 1;
  /// Leading corpus points that also run the serve-vs-cold comparison.
  std::size_t serve_points = 8;
  /// Points of the separate analytic-vs-simulation corpus (each runs
  /// sim_replications packet-level simulations; by far the costliest
  /// comparisons, so the budget is independent of `points`).
  std::size_t sim_points = 2;
  int sim_replications = 3;
  double sim_duration_s = 20.0;  ///< per replication, > kSimWarmupS
  /// Self-test hook: added to every kernel-side tail before comparing.
  /// A nonzero perturbation MUST produce mismatches — pinned by a
  /// WILL_FAIL ctest entry and tests/test_check.cpp — proving the
  /// harness actually discriminates, not just agrees.
  double perturb = 0.0;
};

struct CheckReport {
  CheckOptions options;
  std::size_t points = 0;       ///< points evaluated (both corpora)
  std::size_t comparisons = 0;  ///< individual cross-evaluations
  std::size_t skipped = 0;      ///< legitimately unsolvable points
  std::vector<Mismatch> mismatches;  ///< ordered by (point, discovery)

  [[nodiscard]] bool ok() const noexcept { return mismatches.empty(); }
  /// Deterministic text report — no timing, no thread count.
  [[nodiscard]] std::string to_text() const;
};

/// Runs the full harness. Metrics: check.{points, comparisons,
/// mismatches, skipped} counters in obs::MetricsRegistry.
[[nodiscard]] CheckReport run_check(const CheckOptions& options);

}  // namespace fpsq::check
