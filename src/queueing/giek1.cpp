#include "queueing/giek1.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "err/fault_injection.h"
#include "math/fixed_point.h"
#include "math/linalg.h"
#include "obs/solver_telemetry.h"
#include "obs/trace.h"

namespace fpsq::queueing {

ArrivalTransform deterministic_arrivals(double period_s) {
  if (!(period_s > 0.0)) {
    throw std::invalid_argument("deterministic_arrivals: period > 0");
  }
  // log A(u) = -u T: entire, trivially single-valued.
  return {[period_s](Complex u) { return -u * period_s; }, period_s,
          "Det", {period_s}};
}

ArrivalTransform gamma_arrivals(double shape, double rate) {
  if (!(shape > 0.0) || !(rate > 0.0)) {
    throw std::invalid_argument("gamma_arrivals: shape, rate > 0");
  }
  // log A(u) = shape [log rate - log(rate + u)]. The iteration keeps
  // Re(rate + u) > 0 (u = beta(1-z) with Re z < 1-ish), where the
  // principal log of (rate + u) is analytic and single-valued.
  return {[shape, rate](Complex u) {
            return shape * (std::log(rate) -
                            std::log(Complex{rate, 0.0} + u));
          },
          shape / rate, "Gamma", {shape, rate}};
}

ArrivalTransform erlang_arrivals(int m, double rate) {
  if (m < 1 || !(rate > 0.0)) {
    throw std::invalid_argument("erlang_arrivals: m >= 1, rate > 0");
  }
  auto t = gamma_arrivals(static_cast<double>(m), rate);
  t.name = "Erlang";
  return t;
}

ArrivalTransform gamma_arrivals_mean_cov(double mean_s, double cov) {
  if (!(mean_s > 0.0) || !(cov > 0.0)) {
    throw std::invalid_argument("gamma_arrivals_mean_cov: mean, cov > 0");
  }
  const double shape = 1.0 / (cov * cov);
  return gamma_arrivals(shape, shape / mean_s);
}

err::Result<GiEk1Solver> GiEk1Solver::create(int k, double mean_service_s,
                                             ArrivalTransform arrivals) {
  GiEk1Solver solver;
  if (auto e = solver.init(k, mean_service_s, std::move(arrivals))) {
    err::record_failure(*e);
    return *std::move(e);
  }
  return solver;
}

GiEk1Solver::GiEk1Solver(int k, double mean_service_s,
                         ArrivalTransform arrivals) {
  if (auto e = init(k, mean_service_s, std::move(arrivals))) {
    err::record_failure(*e);
    err::throw_solver_error(*e);
  }
}

std::optional<err::SolverError> GiEk1Solver::init(
    int k, double mean_service_s, ArrivalTransform arrivals) {
  k_ = k;
  service_s_ = mean_service_s;
  arrivals_ = std::move(arrivals);
  const obs::ScopedSolverContext obs_ctx("queueing.giek1");
  FPSQ_SPAN("giek1.pole_search");
  if (k < 1) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "GiEk1Solver: k >= 1 required"};
  }
  if (!(mean_service_s > 0.0) || !(arrivals_.mean > 0.0) ||
      !arrivals_.log_laplace) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "GiEk1Solver: bad service/arrival spec"};
  }
  rho_ = service_s_ / arrivals_.mean;
  if (!(rho_ < 1.0)) {
    return err::SolverError{err::SolverErrorCode::kUnstable,
                            "GiEk1Solver: unstable (rho >= 1)"};
  }
  if (auto fault = err::fault_check("queueing.giek1", rho_)) {
    return fault;
  }
  beta_ = static_cast<double>(k_) / service_s_;

  // Roots: z = omega_k [A(beta (1 - z))]^{1/K}, |z| < 1.
  zetas_.reserve(static_cast<std::size_t>(k_));
  poles_.reserve(static_cast<std::size_t>(k_));
  const double inv_k = 1.0 / static_cast<double>(k_);
  const Complex unit_rot =
      std::exp(Complex{0.0, 2.0 * M_PI / static_cast<double>(k_)});
  for (int j = 0; j < k_; ++j) {
    const double phase =
        2.0 * M_PI * static_cast<double>(j) / static_cast<double>(k_);
    const Complex rot = std::exp(Complex{0.0, phase});
    auto map = [this, rot, inv_k](Complex z) {
      const Complex log_a =
          arrivals_.log_laplace(beta_ * (Complex{1.0, 0.0} - z));
      return rot * std::exp(log_a * inv_k);
    };
    // Complex-step derivative for the Newton cutover.
    auto dmap = [&map](Complex z) {
      const double h = 1e-7;
      return (map(z + Complex{h, 0.0}) - map(z - Complex{h, 0.0})) /
             (2.0 * h);
    };
    // Tolerance note: near saturation (rho -> 1) the real root sits
    // within ~1e-6 of 1 and F(z) - z is evaluated with cancellation, so
    // demanding much below 1e-12 chases rounding noise.
    Complex z0{0.0, 0.0};
    if (j > 0) z0 = zetas_.back() * unit_rot;
    if (!(std::abs(z0) < 1.0)) z0 = Complex{0.0, 0.0};
    const auto res = math::solve_fixed_point(map, dmap, z0, 1e-12, 50000);
    if (!res.converged) {
      return err::SolverError{
          err::SolverErrorCode::kNonConvergence,
          "GiEk1Solver: zeta iteration did not converge"};
    }
    if (!(std::abs(res.root) < 1.0 + 1e-12)) {
      return err::SolverError{err::SolverErrorCode::kNonConvergence,
                              "GiEk1Solver: root outside the unit disk"};
    }
    zetas_.push_back(res.root);
    poles_.push_back(beta_ * (Complex{1.0, 0.0} - res.root));
  }

  // Appendix-D weights (service-side boundary conditions are unchanged).
  weights_.reserve(static_cast<std::size_t>(k_));
  for (int j = 0; j < k_; ++j) {
    Complex w = std::pow(zetas_[static_cast<std::size_t>(j)], k_);
    for (int l = 0; l < k_; ++l) {
      if (l == j) continue;
      const Complex zl = zetas_[static_cast<std::size_t>(l)];
      const Complex zj = zetas_[static_cast<std::size_t>(j)];
      w *= (zl - Complex{1.0, 0.0}) / (zl - zj);
    }
    weights_.push_back(w);
  }

  // Degenerate clustering (same criterion as D/E_K/1).
  double min_rel = 1.0;
  for (std::size_t i = 0; i < poles_.size(); ++i) {
    min_rel = std::min(min_rel,
                       std::abs(poles_[i] - Complex{beta_, 0.0}) / beta_);
    for (std::size_t j = i + 1; j < poles_.size(); ++j) {
      min_rel = std::min(
          min_rel, std::abs(poles_[i] - poles_[j]) /
                       std::max(std::abs(poles_[i]), std::abs(poles_[j])));
    }
  }
  obs::record_pole_diagnostics("queueing.giek1", min_rel,
                               math::vandermonde_condition_estimate(zetas_));
  if (min_rel <= 10.0 * ErlangMixMgf::kPoleClash) {
    degenerate_ = true;
    mgf_ = ErlangMixMgf{};
    return std::nullopt;
  }

  Complex wsum{0.0, 0.0};
  std::vector<ErlangMixMgf::PoleTerm> terms;
  terms.reserve(weights_.size());
  for (int j = 0; j < k_; ++j) {
    wsum += weights_[static_cast<std::size_t>(j)];
    terms.push_back({poles_[static_cast<std::size_t>(j)],
                     {weights_[static_cast<std::size_t>(j)]}});
  }
  const double atom = 1.0 - wsum.real();
  if (!(atom > -1e-9 && atom < 1.0 + 1e-9)) {
    return err::SolverError{err::SolverErrorCode::kIllConditioned,
                            "GiEk1Solver: atom out of range"};
  }
  mgf_ = ErlangMixMgf{atom, std::move(terms)};
  return std::nullopt;
}

}  // namespace fpsq::queueing
