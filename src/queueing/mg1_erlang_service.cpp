#include "queueing/mg1_erlang_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/polynomial_roots.h"
#include "math/roots.h"
#include "obs/solver_telemetry.h"
#include "obs/trace.h"

namespace fpsq::queueing {

MG1ErlangMixService::MG1ErlangMixService(double lambda,
                                         std::vector<Component> components)
    : lambda_(lambda), components_(std::move(components)) {
  if (!(lambda > 0.0)) {
    throw std::invalid_argument("MG1ErlangMixService: lambda > 0");
  }
  if (components_.empty()) {
    throw std::invalid_argument("MG1ErlangMixService: no components");
  }
  double wsum = 0.0;
  min_rate_ = std::numeric_limits<double>::infinity();
  for (const auto& c : components_) {
    if (!(c.weight > 0.0) || c.k < 1 || !(c.rate > 0.0)) {
      throw std::invalid_argument(
          "MG1ErlangMixService: bad component parameters");
    }
    wsum += c.weight;
    min_rate_ = std::min(min_rate_, c.rate);
  }
  for (auto& c : components_) {
    c.weight /= wsum;
  }
  for (const auto& c : components_) {
    const double k = static_cast<double>(c.k);
    es_ += c.weight * k / c.rate;
    es2_ += c.weight * k * (k + 1.0) / (c.rate * c.rate);
  }
  rho_ = lambda_ * es_;
  if (!(rho_ < 1.0)) {
    throw std::invalid_argument("MG1ErlangMixService: unstable (rho >= 1)");
  }
}

double MG1ErlangMixService::mean_wait() const {
  return lambda_ * es2_ / (2.0 * (1.0 - rho_));
}

double MG1ErlangMixService::service_mgf(double s) const {
  if (!(s < min_rate_)) {
    throw std::invalid_argument(
        "MG1ErlangMixService::service_mgf: s must be below min rate");
  }
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight * std::pow(c.rate / (c.rate - s),
                               static_cast<double>(c.k));
  }
  return acc;
}

double MG1ErlangMixService::dominant_pole() const {
  const obs::ScopedSolverContext obs_ctx("queueing.mg1_erlang");
  FPSQ_SPAN("mg1_erlang.dominant_pole");
  // g(s) = s - lambda (B(s) - 1): g(0) = 0, g'(0) = 1 - rho > 0,
  // g -> -inf as s -> min_rate; lambda(B - 1) convex => unique root.
  auto g = [this](double s) { return s - lambda_ * (service_mgf(s) - 1.0); };
  const double hi = min_rate_ * (1.0 - 1e-12);
  if (g(hi) >= 0.0) {
    // Should not happen (B diverges at min_rate), but guard anyway.
    throw std::runtime_error(
        "MG1ErlangMixService::dominant_pole: no sign change before the "
        "service pole");
  }
  const auto r = obs::require_converged(
      math::brent(g, 1e-12 * min_rate_, hi, 1e-14 * min_rate_),
      "MG1ErlangMixService::dominant_pole");
  return r.root;
}

ErlangMixMgf MG1ErlangMixService::paper_mgf() const {
  return ErlangMixMgf::atom_plus_exponential(1.0 - rho_,
                                             Complex{dominant_pole(), 0.0});
}

ErlangMixMgf MG1ErlangMixService::asymptotic_mgf() const {
  const double gamma = dominant_pole();
  // g'(gamma) = 1 - lambda B'(gamma); tail constant -(1-rho)/g'(gamma).
  double bp = 0.0;
  for (const auto& c : components_) {
    const double k = static_cast<double>(c.k);
    bp += c.weight * k / c.rate *
          std::pow(c.rate / (c.rate - gamma), k + 1.0);
  }
  const double gp = 1.0 - lambda_ * bp;
  if (!(gp < 0.0)) {
    throw std::runtime_error(
        "MG1ErlangMixService::asymptotic_mgf: unexpected g'(gamma) >= 0");
  }
  const double tail_const = -(1.0 - rho_) / gp;
  return ErlangMixMgf::atom_plus_exponential(1.0 - tail_const,
                                             Complex{gamma, 0.0});
}

namespace {

/// Components sharing one (numerically identical) Erlang rate.
struct RateGroup {
  double rate = 0.0;
  int k_max = 0;
  std::vector<std::pair<double, int>> members;  // (weight, k)
};

std::vector<RateGroup> group_by_rate(
    const std::vector<MG1ErlangMixService::Component>& components) {
  std::vector<RateGroup> groups;
  for (const auto& c : components) {
    RateGroup* hit = nullptr;
    for (auto& g : groups) {
      if (std::abs(g.rate - c.rate) <= 1e-12 * std::abs(g.rate)) {
        hit = &g;
        break;
      }
    }
    if (hit == nullptr) {
      groups.push_back({c.rate, 0, {}});
      hit = &groups.back();
    }
    hit->k_max = std::max(hit->k_max, c.k);
    hit->members.push_back({c.weight, c.k});
  }
  return groups;
}

}  // namespace

int MG1ErlangMixService::total_order() const {
  // Pole count of the *reduced* rational transform: components sharing a
  // rate share the (rate - s)^{k_max} denominator factor.
  int total = 0;
  for (const auto& g : group_by_rate(components_)) {
    total += g.k_max;
  }
  return total;
}

ErlangMixMgf MG1ErlangMixService::full_mgf() const {
  using math::Poly;
  const obs::ScopedSolverContext obs_ctx("queueing.mg1_erlang");
  FPSQ_SPAN("mg1_erlang.full_mgf");
  // Work in time-scaled units z = s / sigma with sigma the geometric mean
  // of the component rates: this keeps the expanded polynomial's
  // coefficient dynamic range manageable. Poles scale back by sigma; the
  // (dimensionless) residue coefficients transfer unchanged.
  double log_sigma = 0.0;
  for (const auto& c : components_) {
    log_sigma += std::log(c.rate) / static_cast<double>(components_.size());
  }
  const double sigma = std::exp(log_sigma);
  const double lam = lambda_ / sigma;
  std::vector<Component> scaled = components_;
  for (auto& c : scaled) c.rate /= sigma;

  // Reduced rational form over the least common denominator: with rate
  // groups g (shared denominator (r_g - z)^{Kg}, Kg = max k in group),
  //   D(z) = prod_g (r_g - z)^{Kg},
  //   N(z) = sum over components i in group g of
  //          w_i r^{k_i} (r - z)^{Kg - k_i} prod_{g' != g} (r_g' - z)^{Kg'},
  //   g(z) = z - lam (B(z) - 1) = [z D - lam (N - D)] / D =: Q/D.
  // Q(0) = 0; the remaining roots of Q are the poles of W. Building over
  // the LCD (instead of the naive product of all component denominators)
  // keeps the form in lowest terms, so no spurious cancelling roots
  // appear when servers share rates.
  const auto groups = group_by_rate(scaled);
  Poly big_d = {Complex{1.0, 0.0}};
  for (const auto& g : groups) {
    const Poly factor = {Complex{g.rate, 0.0}, Complex{-1.0, 0.0}};
    for (int i = 0; i < g.k_max; ++i) {
      big_d = math::poly_mul(big_d, factor);
    }
  }
  Poly big_n = {Complex{0.0, 0.0}};
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& g = groups[gi];
    // Cofactor over the other groups.
    Poly cofactor = {Complex{1.0, 0.0}};
    for (std::size_t gj = 0; gj < groups.size(); ++gj) {
      if (gj == gi) continue;
      const Poly factor = {Complex{groups[gj].rate, 0.0},
                           Complex{-1.0, 0.0}};
      for (int i = 0; i < groups[gj].k_max; ++i) {
        cofactor = math::poly_mul(cofactor, factor);
      }
    }
    const Poly own_factor = {Complex{g.rate, 0.0}, Complex{-1.0, 0.0}};
    for (const auto& [weight, k] : g.members) {
      Poly term = {Complex{
          weight * std::pow(g.rate, static_cast<double>(k)), 0.0}};
      for (int i = 0; i < g.k_max - k; ++i) {
        term = math::poly_mul(term, own_factor);
      }
      big_n = math::poly_add(big_n, math::poly_mul(term, cofactor));
    }
  }
  // Q = z D + lam D - lam N.
  Poly s_d(big_d.size() + 1, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < big_d.size(); ++i) s_d[i + 1] = big_d[i];
  Poly q = math::poly_add(
      s_d, math::poly_add(math::poly_scale(big_d, Complex{lam, 0.0}),
                          math::poly_scale(big_n, Complex{-lam, 0.0})));
  // Divide out the root at z = 0.
  if (std::abs(q.front()) > 1e-6 * std::abs(q.back())) {
    throw std::runtime_error("MG1ErlangMixService::full_mgf: Q(0) != 0");
  }
  Poly qs(q.begin() + 1, q.end());
  qs = math::poly_trim(qs, 1e-14 * std::abs(qs.back()));

  // Localize in scaled units, rescale, then polish against the stable
  // factored g in original units.
  auto roots = math::durand_kerner(qs, 1e-12, 5000);
  for (auto& r : roots) r *= sigma;
  auto b_of = [this](Complex s) {
    Complex acc{0.0, 0.0};
    for (const auto& c : components_) {
      acc += c.weight * std::pow(Complex{c.rate, 0.0} /
                                     (Complex{c.rate, 0.0} - s),
                                 c.k);
    }
    return acc;
  };
  auto g = [this, &b_of](Complex s) {
    return s - lambda_ * (b_of(s) - Complex{1.0, 0.0});
  };
  auto gp = [this](Complex s) {
    Complex acc{1.0, 0.0};
    for (const auto& c : components_) {
      const double k = static_cast<double>(c.k);
      acc -= lambda_ * c.weight * k / c.rate *
             std::pow(Complex{c.rate, 0.0} / (Complex{c.rate, 0.0} - s),
                      k + 1.0);
    }
    return acc;
  };
  for (auto& root : roots) {
    for (int it = 0; it < 60; ++it) {
      const Complex val = g(root);
      if (std::abs(val) < 1e-13 * (1.0 + std::abs(root))) break;
      const Complex deriv = gp(root);
      if (std::abs(deriv) == 0.0) break;
      root -= val / deriv;
    }
    if (!(root.real() > 0.0)) {
      throw std::runtime_error(
          "MG1ErlangMixService::full_mgf: pole with Re <= 0 after polish");
    }
  }
  // Pairwise-distinct check (confluent poles need a different expansion).
  double min_rel_sep = 1.0;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    for (std::size_t j = i + 1; j < roots.size(); ++j) {
      const double scale =
          std::max(std::abs(roots[i]), std::abs(roots[j]));
      min_rel_sep =
          std::min(min_rel_sep, std::abs(roots[i] - roots[j]) / scale);
      if (std::abs(roots[i] - roots[j]) < 1e-7 * scale) {
        obs::record_pole_diagnostics("queueing.mg1_erlang", min_rel_sep);
        throw std::runtime_error(
            "MG1ErlangMixService::full_mgf: confluent poles");
      }
    }
  }
  obs::record_pole_diagnostics("queueing.mg1_erlang", min_rel_sep);

  // Residues from the factored form: W = (1-rho) s / g(s);
  // term coefficient c_j = -Res_j / alpha_j = -(1-rho)/g'(alpha_j).
  std::vector<ErlangMixMgf::PoleTerm> terms;
  terms.reserve(roots.size());
  Complex coeff_sum{0.0, 0.0};
  for (const auto& alpha : roots) {
    const Complex c = -(1.0 - rho_) / gp(alpha);
    coeff_sum += c;
    terms.push_back({alpha, c});
  }
  const double atom = 1.0 - coeff_sum.real();
  ErlangMixMgf out{atom, std::move(terms)};
  // Self-check against the factored transform at a probe point.
  const double probe = -0.5 * min_rate_;
  const double direct =
      ((1.0 - rho_) * probe / g(Complex{probe, 0.0})).real();
  if (std::abs(out.value_real(probe) - direct) >
      1e-6 * (1.0 + std::abs(direct))) {
    throw std::runtime_error(
        "MG1ErlangMixService::full_mgf: verification failed");
  }
  return out;
}

}  // namespace fpsq::queueing
