#include "queueing/mg1_erlang_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "err/error.h"
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

/// Poles closer than this (relative) are confluent: the simple-pole
/// expansion does not hold there.
constexpr double kPoleClash = 1e-7;
/// Aberth sweep cap; one Erlang component needs 2-3 sweeps.
constexpr int kMaxSweeps = 200;
/// Bound on |atom - (1 - rho)|: the residues must carry all of rho.
constexpr double kAtomTol = 1e-8;

/// z^k for k >= 0 by binary powering.
Complex ipow(Complex z, int k) {
  Complex acc{1.0, 0.0};
  for (; k > 0; k >>= 1) {
    if ((k & 1) != 0) acc *= z;
    z *= z;
  }
  return acc;
}

bool finite(Complex z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

struct GValue {
  Complex g;
  Complex dg;    ///< g'(s)
  double floor;  ///< rounding bound on the evaluation of g
};

/// g(s) = s - lambda (B(s) - 1) and g'(s) on the rate groups. An Erlang
/// term u^k, u = r/(r - s), is off by about 2(k + 1) ulps (u by two, and
/// the k-th power multiplies that); eight times their sum is the floor.
GValue evaluate_g(double lambda, const std::vector<RateGroup>& groups,
                  Complex s) {
  Complex b{0.0, 0.0};
  Complex db{0.0, 0.0};
  double noise = 0.0;
  for (const auto& grp : groups) {
    const Complex inv = 1.0 / (grp.rate - s);
    for (const auto& [w, k] : grp.members) {
      const Complex term = w * ipow(grp.rate * inv, k);
      b += term;
      db += static_cast<double>(k) * term * inv;
      noise += 2.0 * static_cast<double>(k + 1) * std::abs(term);
    }
  }
  return {s - lambda * (b - 1.0), 1.0 - lambda * db,
          8.0 * std::numeric_limits<double>::epsilon() *
              (std::abs(s) + lambda * (1.0 + noise))};
}

/// One seed per pole: branch m of group g's eq.-26 fixed point
///   (1 - s/r_g)^{K_g} = W_g lambda / (s + lambda - lambda sum_other),
/// W_g the weight of the group's top-order members and "other" every
/// other term, three steps from s = r_g (1 - 1e-3 omega_m).
std::vector<Complex> seed_poles(double lambda,
                                const std::vector<RateGroup>& groups) {
  std::vector<Complex> seeds;
  for (const auto& own : groups) {
    double top = 0.0;
    for (const auto& [w, k] : own.members) {
      if (k == own.k_max) top += w;
    }
    const double inv_k = 1.0 / static_cast<double>(own.k_max);
    for (int m = 0; m < own.k_max; ++m) {
      const Complex omega = std::exp(Complex{0.0, 2.0 * M_PI * m * inv_k});
      Complex s = own.rate * (1.0 - 1e-3 * omega);
      for (int step = 0; step < 3; ++step) {
        Complex rest = s + lambda;
        for (const auto& grp : groups) {
          for (const auto& [w, k] : grp.members) {
            if (&grp != &own || k != own.k_max) {
              rest -= lambda * w * ipow(grp.rate / (grp.rate - s), k);
            }
          }
        }
        const Complex next =
            own.rate * (1.0 - omega * std::pow(top * lambda / rest, inv_k));
        if (!finite(next)) break;
        s = next;
      }
      seeds.push_back(s);
    }
  }
  return seeds;
}

[[noreturn]] void fail(err::SolverErrorCode code, const std::string& what) {
  err::SolverError e{code, "queueing.mg1_erlang: " + what};
  err::record_failure(e);
  throw err::SolverFailure(std::move(e));
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
  const obs::ScopedSolverContext obs_ctx("queueing.mg1_erlang");
  FPSQ_SPAN("mg1_erlang.full_mgf");
  const auto groups = group_by_rate(components_);
  const auto g = [this, &groups](Complex s) {
    return evaluate_g(lambda_, groups, s);
  };
  std::vector<Complex> z = seed_poles(lambda_, groups);
  const std::size_t n = z.size();

  // Aberth-Ehrlich (Gauss-Seidel) on P(s) = g(s) prod_g (r_g - s)^{K_g}
  // / s, the degree-n polynomial whose roots are the poles, with
  // P'/P = g'/g + sum_g K_g/(s - r_g) - 1/s from the factored form:
  // z_k -= 1 / (P'/P(z_k) - sum_{j != k} 1/(z_k - z_j)). A pole is done
  // once g(z_k) is at its rounding floor or the step below 4 ulps.
  std::vector<char> done(n, 0);
  int sweeps = 0;
  bool converged = false;
  while (!converged && sweeps < kMaxSweeps) {
    ++sweeps;
    converged = true;
    for (std::size_t k = 0; k < n; ++k) {
      if (done[k] != 0) continue;
      const GValue v = g(z[k]);
      if (std::abs(v.g) <= v.floor) {
        done[k] = 1;
        continue;
      }
      converged = false;
      Complex ratio = v.dg / v.g - 1.0 / z[k];
      for (const auto& grp : groups) {
        ratio += static_cast<double>(grp.k_max) / (z[k] - grp.rate);
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (j != k) ratio -= 1.0 / (z[k] - z[j]);
      }
      const Complex step = 1.0 / ratio;
      if (!finite(step)) continue;
      z[k] -= step;
      if (std::abs(step) <=
          4.0 * std::numeric_limits<double>::epsilon() * std::abs(z[k])) {
        done[k] = 1;
      }
    }
  }
  obs::record_solver_call("aberth", sweeps, converged);
  if (!converged) {
    fail(err::SolverErrorCode::kNonConvergence,
         "Aberth sweeps did not converge within " +
             std::to_string(kMaxSweeps));
  }

  // Newton polish on g, down to its rounding floor.
  for (auto& root : z) {
    for (int it = 0; it < 3; ++it) {
      const GValue v = g(root);
      if (!(std::abs(v.g) > v.floor)) break;
      root -= v.g / v.dg;
    }
    if (!finite(root) || !(root.real() > 0.0)) {
      fail(err::SolverErrorCode::kIllConditioned, "pole with Re <= 0");
    }
  }
  double min_sep2 = 1.0;  // squared relative separation
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      min_sep2 = std::min(min_sep2, std::norm(z[i] - z[j]) /
                                        std::max(std::norm(z[i]),
                                                 std::norm(z[j])));
    }
  }
  const double min_rel_sep = std::sqrt(min_sep2);
  obs::record_pole_diagnostics("queueing.mg1_erlang", min_rel_sep);
  if (min_rel_sep < kPoleClash) {
    fail(err::SolverErrorCode::kPoleClash, "confluent poles");
  }
  // g is real on the real axis, so its roots are real or conjugate
  // pairs; make that exact (TailKernel folds each pair into one real
  // term). The mate of a root is the root nearest its mirror image: a
  // root that is its own mate is real; other mates must be mutual and
  // on opposite sides of the axis.
  const std::vector<Complex> found = z;
  const auto mate = [&found](std::size_t k) {
    std::size_t best = k;
    for (std::size_t j = 0; j < found.size(); ++j) {
      if (std::norm(found[j] - std::conj(found[k])) <
          std::norm(found[best] - std::conj(found[k]))) {
        best = j;
      }
    }
    return best;
  };
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = mate(k);
    if (j == k) {
      z[k].imag(0.0);
    } else if (mate(j) != k || found[k].imag() * found[j].imag() >= 0.0) {
      fail(err::SolverErrorCode::kIllConditioned, "unpaired complex pole");
    } else if (found[k].imag() > 0.0) {
      z[j] = std::conj(found[k]);
    }
  }

  // Residues from the factored form: W = (1-rho) s / g(s); term
  // coefficient c_j = -Res_j / alpha_j = -(1-rho)/g'(alpha_j). The atom
  // W(inf) = 1 - rho is what is left of W(0) = 1 once every pole's
  // residue is in: a missing or spurious pole shows there.
  std::vector<ErlangMixMgf::PoleTerm> terms;
  terms.reserve(n);
  double coeff_sum = 0.0;
  for (const auto& alpha : z) {
    const Complex c = -(1.0 - rho_) / g(alpha).dg;
    coeff_sum += c.real();
    terms.push_back({alpha, c});
  }
  const double atom = 1.0 - coeff_sum;
  if (!(std::abs(atom - (1.0 - rho_)) <= kAtomTol)) {
    fail(err::SolverErrorCode::kIllConditioned,
         "atom " + std::to_string(atom) + " != 1 - rho");
  }
  ErlangMixMgf out{atom, std::move(terms)};
  // Self-check against the factored transform at a probe point.
  const double probe = -0.5 * min_rate_;
  const double direct =
      ((1.0 - rho_) * probe / g(Complex{probe, 0.0}).g).real();
  if (!(std::abs(out.value_real(probe) - direct) <=
        1e-6 * (1.0 + std::abs(direct)))) {
    fail(err::SolverErrorCode::kIllConditioned, "probe-point check failed");
  }
  return out;
}

}  // namespace fpsq::queueing
