#include "reference/rtt_approximations.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "reference/chernoff.h"

namespace fpsq::core {

using queueing::Complex;
using queueing::ErlangMixMgf;

double dominant_pole_quantile_ms(const RttModel& model, double epsilon) {
  // Dominant pole of eq. (35): the smallest-real-part pole among
  // {gamma, alpha_j, beta}. Its residue is evaluated from the factored
  // form. With the pole delta and total residue R (real after pairing
  // conjugates), the method solves R e^{-delta x} = epsilon.
  const ErlangMixMgf& up = model.upstream_mgf();
  const queueing::ErlangMixture& position = model.position_mixture();
  const bool dropped = model.burst_wait_dropped();
  double delta = 0.0;
  double residue = 0.0;
  const double beta = position.beta();
  const double up_pole = up.terms().empty()
                             ? std::numeric_limits<double>::infinity()
                             : up.terms().front().theta.real();
  const double alpha1 =
      dropped ? std::numeric_limits<double>::infinity()
              : model.burst_wait_mgf().dominant_pole().real();
  if (alpha1 <= beta && alpha1 <= up_pole) {
    // Simple real pole alpha_1 of W: residue of the product there is
    // a_1 * D_u(alpha_1) * P(alpha_1) (all factored evaluations).
    const Complex a1{alpha1, 0.0};
    const Complex w1 = model.downstream_solver().weights().front();
    residue = (w1 * up.value(a1) * position.mgf(a1)).real();
    delta = alpha1;
  } else if (up_pole <= beta) {
    // Upstream pole gamma dominant: residue rho_u-ish times the other
    // factors at gamma.
    const Complex g{up_pole, 0.0};
    const Complex c = up.terms().front().coeff;
    Complex rest = position.mgf(g);
    if (!dropped) rest *= model.burst_wait_mgf().value(g);
    residue = (c * rest).real();
    delta = up_pole;
  } else {
    // Position pole beta (multiplicity K-1) dominant: keep the full
    // position mixture scaled by the other factors evaluated at...
    // the paper keeps the *term*; the clean equivalent is to scale
    // the position tail by (D_u W)(at s -> its own mass), i.e. treat
    // the simple-pole factors as their total mass at the dominant
    // scale. We use the exact convolution with the atoms only.
    const double mass_at_zero = model.upstream_burst_mgf().constant_term();
    // Tail approx: mass_at_zero * P(position > x); solve for x.
    if (mass_at_zero <= epsilon) return 0.0;
    return position.quantile(epsilon / mass_at_zero) * 1e3;
  }
  if (!(residue > epsilon)) {
    // Residue too small: the dominant-pole method degenerates; report
    // zero (the paper notes the method needs a non-small residue).
    return 0.0;
  }
  return std::log(residue / epsilon) / delta * 1e3;
}

double chernoff_quantile_ms(const RttModel& model, double epsilon) {
  double s_max = model.position_mixture().beta();
  const ErlangMixMgf& up = model.upstream_mgf();
  if (!up.terms().empty()) {
    s_max = std::min(s_max, up.terms().front().theta.real());
  }
  if (!model.burst_wait_dropped()) {
    s_max = std::min(s_max, model.burst_wait_mgf().dominant_pole().real());
  }
  return queueing::chernoff_quantile_fn(
             [&model](double s) { return model.total_mgf_value(s); }, s_max,
             epsilon) *
         1e3;
}

}  // namespace fpsq::core
