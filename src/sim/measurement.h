// Delay measurement taps: streaming moments + (optionally) full sample
// retention for exact empirical quantiles, with a warm-up cutoff so
// transients do not bias steady-state statistics.
#pragma once

#include <optional>
#include <vector>

#include "stats/empirical.h"
#include "stats/moments.h"

namespace fpsq::sim {

class DelayTap {
 public:
  /// @param warmup_s       ignore samples with timestamp < warmup_s
  /// @param store_samples  retain all samples for exact quantiles
  explicit DelayTap(double warmup_s = 0.0, bool store_samples = false);

  /// Records a delay observed at simulation time `now_s`.
  void record(double now_s, double delay_s);

  [[nodiscard]] const stats::Moments& moments() const noexcept {
    return moments_;
  }
  /// Exact empirical quantile; requires store_samples = true.
  [[nodiscard]] double exact_quantile(double p) const;

  /// Empirical tail P(delay > x); requires store_samples = true.
  [[nodiscard]] double exact_tail(double x) const;

  [[nodiscard]] bool stores_samples() const noexcept {
    return samples_.has_value();
  }
  [[nodiscard]] const stats::Empirical& samples() const;

 private:
  double warmup_s_;
  stats::Moments moments_;
  std::optional<stats::Empirical> samples_;
};

}  // namespace fpsq::sim
