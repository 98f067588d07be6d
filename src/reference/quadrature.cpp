#include "reference/quadrature.h"

#include <cmath>
#include <stdexcept>

namespace fpsq::math {

namespace {

double simpson(double fa, double fm, double fb, double h) {
  return h / 6.0 * (fa + 4.0 * fm + fb);
}

/// Depth at which the error estimate becomes trustworthy: levels above
/// this are always subdivided (2^5 = 32 initial panels).
constexpr int kMaxTrustedDepth = 35;

double adaptive(const std::function<double(double)>& f, double a, double b,
                double fa, double fm, double fb, double whole, double tol,
                int depth, double min_width) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(fa, flm, fm, m - a);
  const double right = simpson(fm, frm, fb, b - m);
  const double delta = left + right - whole;
  // A narrow feature can hide between the five initial samples: force the
  // first few subdivision levels before trusting the error estimate.
  const bool forced = depth > kMaxTrustedDepth;
  // Stop on: tolerance met, recursion exhausted, interval at resolution
  // floor, or delta at the rounding-noise scale of the partial sums
  // (subdividing further can only churn).
  const double noise =
      1e-14 * (std::abs(left) + std::abs(right)) + 1e-300;
  if (!forced && (depth <= 0 || std::abs(delta) <= 15.0 * tol ||
                  (b - a) < min_width || std::abs(delta) <= noise)) {
    return left + right + delta / 15.0;  // Richardson correction
  }
  return adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1,
                  min_width) +
         adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1,
                  min_width);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol, int max_depth) {
  if (!(a <= b)) {
    throw std::invalid_argument("integrate: requires a <= b");
  }
  if (a == b) return 0.0;
  const double m = 0.5 * (a + b);
  const double fa = f(a);
  const double fm = f(m);
  const double fb = f(b);
  const double whole = simpson(fa, fm, fb, b - a);
  const double min_width = (b - a) * 1e-12;
  return adaptive(f, a, b, fa, fm, fb, whole, tol, max_depth, min_width);
}

}  // namespace fpsq::math
