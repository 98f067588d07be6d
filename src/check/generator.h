// fpsq::check — deterministic parameter-point generator for the
// differential self-check harness behind `fpsq check`.
//
// Every sampled point is a pure function of (seed, index): the stream
// state is derived with the same SplitMix64 counter-based scheme as
// sim/replication.h, so the corpus is bit-identical at any thread count
// and any single point can be re-derived from the seed printed in a
// mismatch record. The sampler deliberately over-weights the regimes
// where the three independent evaluation paths historically disagree:
// rho -> 0 (the waiting-time atom swallows every quantile), the
// DEk1 degeneracy boundary (rho ~ 0.03..0.12, incl. the K = 20
// pole-clash neighbourhood of reference/convolution.h), rho -> 1
// heavy traffic, K = 1 (the D/M/1 law), and epsilon down to 1e-7.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/scenario.h"

namespace fpsq::check {

/// One sampled parameter point. All fields derive from (seed, index).
struct CheckPoint {
  std::size_t index = 0;
  std::uint64_t seed = 0;        ///< master seed of the whole corpus
  std::uint64_t point_seed = 0;  ///< derived stream seed of this point
  /// Admissible scenario (validate() passes). erlang_k == 1 marks a
  /// law-only point: the paper's combined model needs K >= 2, so those
  /// points exercise the raw D/E_1/1 (= D/M/1) law paths only.
  core::AccessScenario scenario;
  double n_clients = 1.0;
  double rho_down = 0.0;  ///< sampled downlink load the point targets
  double epsilon = 1e-5;  ///< quantile target, log-uniform down to 1e-7
};

/// SplitMix64 step (the repo's counter-based seeding primitive).
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Samples point `index` of the main differential corpus for `seed`.
[[nodiscard]] CheckPoint sample_point(std::uint64_t seed,
                                      std::size_t index);

/// Samples point `index` of the (separate, cheaper) analytic-vs-
/// simulation corpus: paper Section-4 scenario shapes at sim-measurable
/// loads and integer client counts.
[[nodiscard]] CheckPoint sample_sim_point(std::uint64_t seed,
                                          std::size_t index);

}  // namespace fpsq::check
