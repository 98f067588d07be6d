#include "dist/fitting.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/special.h"

namespace fpsq::dist {

Erlang erlang_fit_moments(double mean, double cov) {
  if (!(mean > 0.0) || !(cov > 0.0)) {
    throw std::invalid_argument("erlang_fit_moments: mean, cov > 0");
  }
  const double k_real = 1.0 / (cov * cov);
  const int k = std::max(1, static_cast<int>(std::lround(k_real)));
  return Erlang::from_mean(k, mean);
}

ErlangTailFit erlang_fit_tail(double mean, std::span<const TdfPoint> points,
                              int k_min, int k_max, double tdf_floor) {
  if (!(mean > 0.0) || k_min < 1 || k_max < k_min) {
    throw std::invalid_argument("erlang_fit_tail: bad arguments");
  }
  ErlangTailFit best;
  best.loss = std::numeric_limits<double>::infinity();
  for (int k = k_min; k <= k_max; ++k) {
    const double rate = static_cast<double>(k) / mean;
    double loss = 0.0;
    int used = 0;
    for (const auto& pt : points) {
      if (pt.tdf < tdf_floor || pt.tdf >= 1.0 || pt.x <= 0.0) continue;
      const double model = math::erlang_ccdf(k, rate, pt.x);
      if (model <= 0.0) {
        loss += 100.0;  // model tail already dead where data is alive
        continue;
      }
      const double d = std::log10(pt.tdf) - std::log10(model);
      loss += d * d;
      ++used;
    }
    if (used == 0) continue;
    if (loss < best.loss) {
      best = {k, rate, loss};
    }
  }
  if (!std::isfinite(best.loss)) {
    throw std::invalid_argument("erlang_fit_tail: no usable TDF points");
  }
  return best;
}

}  // namespace fpsq::dist
