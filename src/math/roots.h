// One-dimensional root finding used throughout the analytic queueing
// solvers (dominant poles, quantile inversion, Chernoff optimizers).
#pragma once

#include <functional>
#include <stdexcept>

namespace fpsq::math {

/// Result of a root search.
struct RootResult {
  double root = 0.0;       ///< abscissa of the (approximate) root
  double value = 0.0;      ///< f(root)
  int iterations = 0;      ///< iterations consumed
  bool converged = false;  ///< whether the tolerance was met
};

/// Thrown when a bracket [a, b] does not satisfy f(a) * f(b) <= 0.
class BracketError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Brent's method: inverse quadratic interpolation + secant + bisection.
/// Superlinear on smooth functions, never worse than bisection.
[[nodiscard]] RootResult brent(const std::function<double(double)>& f,
                               double a, double b, double x_tol = 1e-13,
                               int max_iter = 200);

/// Expands [a, b] geometrically away from `a` until f changes sign, then
/// runs Brent. Useful when only a lower edge of the bracket is known
/// (e.g. dominant-pole searches on (0, s_max)).
///
/// @param growth  bracket expansion factor (> 1)
[[nodiscard]] RootResult find_root_expanding(
    const std::function<double(double)>& f, double a, double initial_step,
    double x_tol = 1e-13, int max_expand = 200, double growth = 1.6);

/// Newton iteration with bisection fallback inside a safety bracket.
/// `df` is the derivative. Falls back to bisection steps whenever the
/// Newton step leaves [a, b] or is not half the previous step (the
/// rtsafe guard, so Newton cannot cycle inside the bracket).
[[nodiscard]] RootResult newton_safe(const std::function<double(double)>& f,
                                     const std::function<double(double)>& df,
                                     double a, double b, double x0,
                                     double x_tol = 1e-14,
                                     int max_iter = 100);

/// newton_safe with precomputed endpoint values fa = f(a) and fb = f(b):
/// callers that just bracketed the root (quantile inversions) save the
/// two endpoint re-evaluations the plain overload would spend.
[[nodiscard]] RootResult newton_safe(const std::function<double(double)>& f,
                                     const std::function<double(double)>& df,
                                     double a, double fa, double b,
                                     double fb, double x0,
                                     double x_tol = 1e-14,
                                     int max_iter = 100);

}  // namespace fpsq::math
