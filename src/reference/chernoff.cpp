#include "reference/chernoff.h"

#include <cmath>
#include <stdexcept>

#include "obs/solver_telemetry.h"
#include "reference/minimize.h"

namespace fpsq::queueing {

double chernoff_tail_fn(const std::function<double(double)>& mgf_value,
                        double s_max, double x) {
  if (x <= 0.0) return 1.0;
  if (!(s_max > 0.0)) {
    throw std::invalid_argument("chernoff_tail_fn: s_max > 0");
  }
  // log F(s) - s x is convex in s on (0, s_max); golden-section suffices.
  auto objective = [&mgf_value, x](double s) {
    const double f = mgf_value(s);
    if (!(f > 0.0)) return 1e300;  // past a sign flip near the pole
    return std::log(f) - s * x;
  };
  const obs::ScopedSolverContext obs_ctx("queueing.chernoff");
  const auto r = obs::require_converged(
      math::golden_section(objective, 1e-12 * s_max, s_max * (1.0 - 1e-9),
                           1e-12 * s_max),
      "chernoff_tail_fn");
  return std::min(1.0, std::exp(r.value));
}

double chernoff_quantile_fn(const std::function<double(double)>& mgf_value,
                            double s_max, double epsilon) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("chernoff_quantile_fn: epsilon in (0,1)");
  }
  double hi = 1.0 / s_max;
  int guard = 0;
  while (chernoff_tail_fn(mgf_value, s_max, hi) > epsilon) {
    hi *= 2.0;
    if (++guard > 200) {
      throw std::runtime_error("chernoff_quantile_fn: bracket failure");
    }
  }
  double lo = 0.0;
  for (int i = 0; i < 200 && hi - lo > 1e-13 * (1.0 + hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (chernoff_tail_fn(mgf_value, s_max, mid) > epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace fpsq::queueing
