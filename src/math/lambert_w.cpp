#include "math/lambert_w.h"

#include <cmath>
#include <limits>

#include "obs/solver_telemetry.h"

namespace fpsq::math {

namespace {

ComplexRootResult lambert_w0_impl(Complex z) {
  constexpr int kMaxIter = 16;
  constexpr double kRoundoff = 8.0 * std::numeric_limits<double>::epsilon();
  ComplexRootResult r;
  // q = 2 (e z + 1) vanishes at the branch point z = -1/e.
  const Complex q = 2.0 * (M_E * z + 1.0);
  Complex w;
  if (std::abs(q) < 0.6) {
    const Complex p = std::sqrt(q);
    w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)));
    if (p == 0.0) {  // z = -1/e to working precision: W_0 = -1 exactly
      r.root = w;
      r.converged = true;
      return r;
    }
  } else if (std::abs(z) <= 1.0) {
    w = z * (1.0 - z + 1.5 * z * z);
  } else {
    const Complex log_z = std::log(z);
    w = log_z - std::log(log_z);
  }
  for (int it = 1; it <= kMaxIter; ++it) {
    const Complex ew = std::exp(w);
    const Complex f = w * ew - z;
    const Complex wp1 = w + 1.0;
    const Complex step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1));
    w -= step;
    r.iterations = it;
    r.residual = std::abs(step);
    if (r.residual <=
        kRoundoff * (1.0 + 1.0 / std::abs(w + 1.0)) * std::abs(w)) {
      r.converged = true;
      break;
    }
  }
  r.root = w;
  return r;
}

}  // namespace

ComplexRootResult lambert_w0(Complex z) {
  const ComplexRootResult r = lambert_w0_impl(z);
  obs::record_solver_call("lambert_w", r.iterations, r.converged);
  return r;
}

}  // namespace fpsq::math
