#include "reference/convolution.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/metrics.h"
#include "queueing/inversion.h"
#include "reference/quadrature.h"

namespace fpsq::queueing {

namespace {

/// Adaptive-quadrature tolerance of every convolution integral.
constexpr double kQuadTol = 1e-12;

/// Characteristic width of V's density: the slowest pole decay
/// max_j 1 / Re(theta_j). f_V is negligible beyond a few multiples.
double density_scale(const ErlangMixMgf& v) {
  double scale = 0.0;
  for (const auto& t : v.terms()) {
    const double re = t.theta.real();
    if (re > 0.0) scale = std::max(scale, 1.0 / re);
  }
  return scale;
}

/// integral_0^x f(w) dw with the initial panels geometrically aligned
/// to V's density width. Adaptive Simpson starts from one panel over
/// the whole domain, so when f_V is a spike of width << x (E[V] is
/// microseconds, x tens of milliseconds) every initial sample misses
/// the spike and the rule "converges" to an answer that drops the
/// entire integral term — found by `fpsq check` as a kernel-vs-oracle
/// mismatch at k=3, rho 0.10, eps ~ 1e-7. Panelling [0, s], [s, 8s],
/// [8s, 64s], ... pins the first samples inside the spike.
double integrate_spiked(const std::function<double(double)>& f,
                        const ErlangMixMgf& v, double x) {
  const double scale = density_scale(v);
  if (!(scale > 0.0) || scale >= 0.25 * x) {
    return math::integrate(f, 0.0, x, kQuadTol);
  }
  double acc = 0.0;
  double lo = 0.0;
  double hi = scale;
  while (lo < x) {
    acc += math::integrate(f, lo, std::min(hi, x), kQuadTol);
    lo = std::min(hi, x);
    hi *= 8.0;
  }
  return acc;
}

}  // namespace

double convolved_tail(const ErlangMixMgf& v, const ErlangMixture& y,
                      double x) {
  if (x <= 0.0) return 1.0;
  // Counted so the TailKernel bench can compare evaluation budgets
  // against this reference (adaptive-quadrature) path.
  FPSQ_OBS_COUNT("queueing.convolution.tail_evals");
  double acc = v.tail(x) + v.constant_term() * y.tail(x);
  if (!v.terms().empty()) {
    acc += integrate_spiked(
        [&v, &y, x](double w) { return v.density(w) * y.tail(x - w); },
        v, x);
  }
  return acc;
}

double convolved_density(const ErlangMixMgf& v, const ErlangMixture& y,
                         double x) {
  if (x <= 0.0) return 0.0;
  double acc = v.constant_term() * y.density(x);
  if (!v.terms().empty()) {
    acc += integrate_spiked(
        [&v, &y, x](double w) { return v.density(w) * y.density(x - w); },
        v, x);
  }
  return acc;
}

double convolved_quantile(const ErlangMixMgf& v, const ErlangMixture& y,
                          double epsilon) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("convolved_quantile: epsilon in (0,1)");
  }
  return invert_tail_newton(
      [&v, &y](double x) { return convolved_tail(v, y, x); },
      [&v, &y](double x) { return convolved_density(v, y, x); },
      epsilon, convolved_mean(v, y) + 1.0 / y.beta(),
      "queueing.convolution");
}

double convolved_mean(const ErlangMixMgf& v, const ErlangMixture& y) {
  return v.mean() + y.mean();
}

double position_delay_uniform_mgf_numeric(int k, double beta, double s) {
  if (k < 1 || !(beta > 0.0)) {
    throw std::invalid_argument(
        "position_delay_uniform_mgf_numeric: k >= 1, beta > 0");
  }
  if (!(s < beta)) {
    throw std::invalid_argument(
        "position_delay_uniform_mgf_numeric: requires s < beta");
  }
  // Eq. (30): P(s) = int_0^1 (beta/(beta - s tau))^K dtau.
  return math::integrate(
      [k, beta, s](double tau) {
        return std::pow(beta / (beta - s * tau), k);
      },
      0.0, 1.0, 1e-12);
}

}  // namespace fpsq::queueing
