#include "math/roots.h"

#include <algorithm>
#include <cmath>

#include "obs/solver_telemetry.h"

namespace fpsq::math {

namespace {
bool opposite_signs(double fa, double fb) {
  return (fa <= 0.0 && fb >= 0.0) || (fa >= 0.0 && fb <= 0.0);
}

/// Runs a solver body, attributing iterations / failures / bracket
/// errors to the active obs::ScopedSolverContext call site.
template <typename Fn>
RootResult instrumented(const char* algorithm, Fn&& body) {
  try {
    const RootResult r = body();
    obs::record_solver_call(algorithm, r.iterations, r.converged);
    obs::record_solver_residual(algorithm, std::abs(r.value));
    return r;
  } catch (const BracketError&) {
    obs::record_bracket_error(algorithm);
    throw;
  }
}

RootResult brent_impl(const std::function<double(double)>& f, double a,
                      double b, double x_tol, int max_iter) {
  double fa = f(a);
  double fb = f(b);
  if (!opposite_signs(fa, fb)) {
    throw BracketError("brent: bracket does not change sign");
  }
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  double d = b - a;  // previous-previous step, for the bisection guard
  bool mflag = true;
  RootResult r;
  for (int i = 0; i < max_iter; ++i) {
    r.iterations = i + 1;
    if (fb == 0.0 || std::abs(b - a) < x_tol) {
      r.root = b;
      r.value = fb;
      r.converged = true;
      return r;
    }
    double s;
    if (fa != fc && fb != fc) {
      // inverse quadratic interpolation
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // secant
      s = b - fb * (b - a) / (fb - fa);
    }
    const double lo = std::min(b, 0.25 * (3.0 * a + b));
    const double hi = std::max(b, 0.25 * (3.0 * a + b));
    const bool cond1 = s < lo || s > hi;
    const bool cond2 = mflag && std::abs(s - b) >= 0.5 * std::abs(b - c);
    const bool cond3 = !mflag && std::abs(s - b) >= 0.5 * std::abs(c - d);
    const bool cond4 = mflag && std::abs(b - c) < x_tol;
    const bool cond5 = !mflag && std::abs(c - d) < x_tol;
    if (cond1 || cond2 || cond3 || cond4 || cond5) {
      s = 0.5 * (a + b);
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (opposite_signs(fa, fs)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  r.root = b;
  r.value = fb;
  r.converged = false;
  return r;
}

RootResult newton_safe_impl(const std::function<double(double)>& f,
                            const std::function<double(double)>& df,
                            double a, double fa, double b, double fb,
                            double x0, double x_tol, int max_iter) {
  if (!opposite_signs(fa, fb)) {
    throw BracketError("newton_safe: bracket does not change sign");
  }
  double x = std::clamp(x0, a, b);
  // Last step taken, for the rtsafe guard below (Numerical Recipes
  // §9.4); the bracket width before any step.
  double dx_old = b - a;
  RootResult r;
  for (int i = 0; i < max_iter; ++i) {
    r.iterations = i + 1;
    const double fx = f(x);
    if (fx == 0.0) {
      r = {x, 0.0, i + 1, true};
      return r;
    }
    // Shrink the bracket around the sign change.
    if (opposite_signs(fa, fx)) {
      b = x;
      fb = fx;
    } else {
      a = x;
      fa = fx;
    }
    const double dfx = df(x);
    double x_next;
    if (dfx != 0.0) {
      x_next = x - fx / dfx;
      if (x_next <= a || x_next >= b) {
        // A step below x_tol left the bracket only because x is the end
        // just set: x is the root. Bisecting from the stale far end
        // would only walk back to it.
        if (std::abs(fx / dfx) < x_tol) {
          r = {x, fx, i + 1, true};
          return r;
        }
        x_next = 0.5 * (a + b);  // Newton escaped the bracket: bisect
      } else if (std::abs(2.0 * fx) > std::abs(dx_old * dfx)) {
        // The step is not half the previous one: Newton is not
        // converging (e.g. a 2-cycle across the steep-to-shallow knee
        // of a two-mode tail), so bisect.
        x_next = 0.5 * (a + b);
      }
    } else {
      x_next = 0.5 * (a + b);
    }
    if (std::abs(x_next - x) < x_tol) {
      r.root = x_next;
      r.value = f(x_next);
      r.converged = true;
      return r;
    }
    dx_old = x_next - x;
    x = x_next;
  }
  r.root = x;
  r.value = f(x);
  r.converged = false;
  return r;
}

}  // namespace

RootResult brent(const std::function<double(double)>& f, double a, double b,
                 double x_tol, int max_iter) {
  return instrumented("brent",
                      [&] { return brent_impl(f, a, b, x_tol, max_iter); });
}

RootResult find_root_expanding(const std::function<double(double)>& f,
                               double a, double initial_step, double x_tol,
                               int max_expand, double growth) {
  if (initial_step <= 0.0 || growth <= 1.0) {
    throw std::invalid_argument(
        "find_root_expanding: step must be > 0, growth > 1");
  }
  return instrumented("find_root_expanding", [&] {
    const double fa = f(a);
    double step = initial_step;
    double lo = a;
    double flo = fa;
    for (int i = 0; i < max_expand; ++i) {
      const double hi = lo + step;
      const double fhi = f(hi);
      if (opposite_signs(flo, fhi)) {
        RootResult r = brent_impl(f, lo, hi, x_tol, 200);
        r.iterations += i + 1;  // include the bracket-expansion probes
        return r;
      }
      lo = hi;
      flo = fhi;
      step *= growth;
    }
    throw BracketError("find_root_expanding: no sign change found");
  });
}

RootResult newton_safe(const std::function<double(double)>& f,
                       const std::function<double(double)>& df, double a,
                       double b, double x0, double x_tol, int max_iter) {
  return instrumented("newton_safe", [&] {
    return newton_safe_impl(f, df, a, f(a), b, f(b), x0, x_tol, max_iter);
  });
}

RootResult newton_safe(const std::function<double(double)>& f,
                       const std::function<double(double)>& df, double a,
                       double fa, double b, double fb, double x0,
                       double x_tol, int max_iter) {
  return instrumented("newton_safe", [&] {
    return newton_safe_impl(f, df, a, fa, b, fb, x0, x_tol, max_iter);
  });
}

}  // namespace fpsq::math
