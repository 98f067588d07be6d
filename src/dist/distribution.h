// Abstract base for the one-dimensional distributions used by the traffic
// models (packet sizes, inter-arrival times, burst sizes). Section 2 of the
// paper works with deterministic, extreme-value (Gumbel), lognormal,
// normal and Erlang laws; all are provided here with a common interface
// so generators, fitters and analyzers compose freely.
#pragma once

#include <memory>
#include <string>

#include "dist/rng.h"

namespace fpsq::dist {

/// Interface for a scalar probability distribution.
///
/// All implementations are immutable value objects; `sample` draws from a
/// caller-provided Rng so the distribution itself stays stateless.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Density at x (0 outside the support; point masses report 0 and
  /// expose themselves via cdf jumps).
  [[nodiscard]] virtual double pdf(double x) const = 0;

  /// P(X <= x).
  [[nodiscard]] virtual double cdf(double x) const = 0;

  /// P(X > x); overridden where a direct formula keeps tail precision.
  [[nodiscard]] virtual double ccdf(double x) const { return 1.0 - cdf(x); }

  /// Smallest x with cdf(x) >= p, for p in (0, 1). The default performs a
  /// numeric inversion of cdf via expanding bisection.
  [[nodiscard]] virtual double quantile(double p) const;

  [[nodiscard]] virtual double mean() const = 0;
  [[nodiscard]] virtual double variance() const = 0;

  [[nodiscard]] double stddev() const;

  /// Coefficient of variation (stddev / mean); 0 for point masses,
  /// throws std::domain_error when the mean is 0.
  [[nodiscard]] double cov() const;

  /// Draws one variate. Default: inverse-transform via quantile().
  [[nodiscard]] virtual double sample(Rng& rng) const;

  /// Human-readable identity, e.g. "Erlang(20, 0.0108)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Polymorphic copy.
  [[nodiscard]] virtual std::unique_ptr<Distribution> clone() const = 0;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

}  // namespace fpsq::dist
