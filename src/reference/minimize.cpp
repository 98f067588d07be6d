#include "reference/minimize.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/solver_telemetry.h"

namespace fpsq::math {

namespace {

MinResult golden_section_impl(const std::function<double(double)>& f,
                              double a, double b, double x_tol,
                              int max_iter) {
  if (!(a < b)) {
    throw std::invalid_argument("golden_section: need a < b");
  }
  constexpr double kInvPhi = 0.6180339887498949;   // 1/phi
  constexpr double kInvPhi2 = 0.3819660112501051;  // 1/phi^2
  double h = b - a;
  double c = a + kInvPhi2 * h;
  double d = a + kInvPhi * h;
  double fc = f(c);
  double fd = f(d);
  MinResult r;
  for (int i = 0; i < max_iter && h > x_tol; ++i) {
    r.iterations = i + 1;
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      h = b - a;
      c = a + kInvPhi2 * h;
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      h = b - a;
      d = a + kInvPhi * h;
      fd = f(d);
    }
  }
  if (fc < fd) {
    r.x = c;
    r.value = fc;
  } else {
    r.x = d;
    r.value = fd;
  }
  r.converged = h <= x_tol;
  return r;
}

}  // namespace

MinResult golden_section(const std::function<double(double)>& f, double a,
                         double b, double x_tol, int max_iter) {
  const MinResult r = golden_section_impl(f, a, b, x_tol, max_iter);
  obs::record_solver_call("golden_section", r.iterations, r.converged);
  return r;
}

MinResult minimize_scan(const std::function<double(double)>& f, double a,
                        double initial_step, double growth, int max_probes,
                        double x_tol) {
  if (initial_step <= 0.0 || growth <= 1.0) {
    throw std::invalid_argument(
        "minimize_scan: step must be > 0 and growth > 1");
  }
  // Probe geometrically; remember the best point and its neighbours.
  double best_x = a + initial_step;
  double best_f = f(best_x);
  double prev_x = a;  // left neighbour of the best probe
  double x = best_x;
  double step = initial_step * growth;
  int since_best = 0;
  MinResult r;
  for (int i = 0; i < max_probes; ++i) {
    const double nx = x + step;
    const double fx = f(nx);
    r.iterations = i + 1;
    if (fx < best_f) {
      prev_x = x;
      best_x = nx;
      best_f = fx;
      since_best = 0;
    } else {
      ++since_best;
      // Two consecutive increases after the minimum: stop probing.
      if (since_best >= 2) {
        break;
      }
    }
    x = nx;
    step *= growth;
  }
  // Refine around the best probe: the minimum lies in [prev_x, x + step].
  const double lo = prev_x;
  const double hi = x + step;
  MinResult g = golden_section_impl(f, lo, hi, x_tol, 200);
  if (g.value <= best_f) {
    g.iterations += r.iterations;
    obs::record_solver_call("minimize_scan", g.iterations, g.converged);
    return g;
  }
  r.x = best_x;
  r.value = best_f;
  r.converged = true;
  obs::record_solver_call("minimize_scan", r.iterations, r.converged);
  return r;
}

MinResult maximize_scan(const std::function<double(double)>& f, double a,
                        double initial_step, double growth, int max_probes,
                        double x_tol) {
  MinResult m = minimize_scan([&f](double t) { return -f(t); }, a,
                              initial_step, growth, max_probes, x_tol);
  m.value = -m.value;
  return m;
}

}  // namespace fpsq::math
