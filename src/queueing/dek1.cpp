#include "queueing/dek1.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "err/fault_injection.h"
#include "math/fixed_point.h"
#include "math/linalg.h"
#include "obs/solver_telemetry.h"
#include "obs/trace.h"
#include "queueing/convolution.h"
#include "queueing/position_delay.h"

namespace fpsq::queueing {

err::Result<DEk1Solver> DEk1Solver::create(int k, double mean_service_s,
                                           double period_s) {
  DEk1Solver solver;
  if (auto e = solver.init(k, mean_service_s, period_s)) {
    err::record_failure(*e);
    return *std::move(e);
  }
  return solver;
}

DEk1Solver::DEk1Solver(int k, double mean_service_s, double period_s) {
  if (auto e = init(k, mean_service_s, period_s)) {
    err::record_failure(*e);
    err::throw_solver_error(*e);
  }
}

std::optional<err::SolverError> DEk1Solver::init(int k,
                                                 double mean_service_s,
                                                 double period_s) {
  k_ = k;
  service_s_ = mean_service_s;
  period_s_ = period_s;
  const obs::ScopedSolverContext obs_ctx("queueing.dek1");
  FPSQ_SPAN("dek1.pole_search");
  if (k < 1) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "DEk1Solver: k >= 1 required"};
  }
  if (!(mean_service_s > 0.0) || !(period_s > 0.0)) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "DEk1Solver: positive times required"};
  }
  rho_ = mean_service_s / period_s;
  if (!(rho_ < 1.0)) {
    return err::SolverError{err::SolverErrorCode::kUnstable,
                            "DEk1Solver: unstable (rho >= 1)"};
  }
  if (auto fault = err::fault_check("queueing.dek1", rho_)) {
    return fault;
  }
  beta_ = static_cast<double>(k_) / service_s_;

  // Solve the K root equations z = exp((z-1)/rho + 2 pi i (j-1)/K).
  zetas_.reserve(static_cast<std::size_t>(k_));
  poles_.reserve(static_cast<std::size_t>(k_));
  const double inv_rho = 1.0 / rho_;
  const Complex unit_rot =
      std::exp(Complex{0.0, 2.0 * M_PI / static_cast<double>(k_)});
  for (int j = 0; j < k_; ++j) {
    const double phase =
        2.0 * M_PI * static_cast<double>(j) / static_cast<double>(k_);
    const Complex rot = std::exp(Complex{0.0, phase});
    auto F = [inv_rho, rot](Complex z) {
      return rot * std::exp((z - Complex{1.0, 0.0}) * inv_rho);
    };
    auto dF = [inv_rho, &F](Complex z) { return F(z) * inv_rho; };
    // Seed policy (deterministic in the parameters): our own root j-1
    // rotated one K-th of a turn (the roots lie approximately on a
    // circle), else the cold start z = 0.
    Complex z0{0.0, 0.0};
    if (j > 0) z0 = zetas_.back() * unit_rot;
    if (!(z0.real() < 1.0)) z0 = Complex{0.0, 0.0};
    const auto res = math::solve_fixed_point(F, dF, z0, 1e-15, 20000);
    if (!res.converged) {
      return err::SolverError{
          err::SolverErrorCode::kNonConvergence,
          "DEk1Solver: zeta iteration did not converge"};
    }
    if (!(res.root.real() < 1.0)) {
      return err::SolverError{err::SolverErrorCode::kNonConvergence,
                              "DEk1Solver: zeta root outside Re z < 1"};
    }
    zetas_.push_back(res.root);
    poles_.push_back(beta_ * (Complex{1.0, 0.0} - res.root));
  }

  // Weights a_j = zeta_j^K prod_{k != j} (zeta_k - 1)/(zeta_k - zeta_j).
  weights_.reserve(static_cast<std::size_t>(k_));
  for (int j = 0; j < k_; ++j) {
    Complex w = std::pow(zetas_[static_cast<std::size_t>(j)], k_);
    for (int m = 0; m < k_; ++m) {
      if (m == j) continue;
      const Complex zm = zetas_[static_cast<std::size_t>(m)];
      const Complex zj = zetas_[static_cast<std::size_t>(j)];
      w *= (zm - Complex{1.0, 0.0}) / (zm - zj);
    }
    weights_.push_back(w);
  }

  // Degenerate regime: all poles collapse onto beta when |zeta| ~
  // e^{-1/rho} drops below numerical resolution; then P(W > 0) <=
  // sum |a_j| ~ |zeta| << 1e-7 and W is a point mass at zero.
  double min_rel_dist = 1.0;
  for (std::size_t i = 0; i < poles_.size(); ++i) {
    const double to_beta = std::abs(poles_[i] - Complex{beta_, 0.0}) /
                           beta_;
    min_rel_dist = std::min(min_rel_dist, to_beta);
    for (std::size_t j = i + 1; j < poles_.size(); ++j) {
      const double d = std::abs(poles_[i] - poles_[j]) /
                       std::max(std::abs(poles_[i]), std::abs(poles_[j]));
      min_rel_dist = std::min(min_rel_dist, d);
    }
  }
  obs::record_pole_diagnostics("queueing.dek1", min_rel_dist,
                               math::vandermonde_condition_estimate(zetas_));
  if (min_rel_dist <= 10.0 * ErlangMixMgf::kPoleClash) {
    degenerate_ = true;
    mgf_ = ErlangMixMgf{};  // point mass at zero; weights remain inspectable
    return std::nullopt;
  }

  // Assemble the MGF: constant + simple poles.
  Complex weight_sum{0.0, 0.0};
  std::vector<ErlangMixMgf::PoleTerm> terms;
  terms.reserve(weights_.size());
  for (int j = 0; j < k_; ++j) {
    weight_sum += weights_[static_cast<std::size_t>(j)];
    terms.push_back({poles_[static_cast<std::size_t>(j)],
                     {weights_[static_cast<std::size_t>(j)]}});
  }
  // The imaginary parts of conjugate-pair weights cancel exactly in
  // theory; fold any numerical residue away.
  const double atom = 1.0 - weight_sum.real();
  if (!(atom > -1e-9 && atom < 1.0 + 1e-9)) {
    return err::SolverError{err::SolverErrorCode::kIllConditioned,
                            "DEk1Solver: atom out of range"};
  }
  mgf_ = ErlangMixMgf{atom, std::move(terms)};
  return std::nullopt;
}

double DEk1Solver::p_wait_zero() const { return mgf_.constant_term(); }

double DEk1Solver::wait_tail(double x) const { return mgf_.tail(x); }

double DEk1Solver::wait_quantile(double epsilon) const {
  return mgf_.quantile(epsilon);
}

double DEk1Solver::mean_wait() const { return mgf_.mean(); }

double DEk1Solver::dominant_pole() const {
  return mgf_.dominant_pole().real();
}

namespace {
/// Erlang(K, beta) expressed as a one-component mixture for convolution.
ErlangMixture own_service_mixture(int k, double beta) {
  std::vector<double> w(static_cast<std::size_t>(k), 0.0);
  w.back() = 1.0;
  return ErlangMixture{beta, std::move(w)};
}
}  // namespace

double DEk1Solver::system_time_tail(double x) const {
  return convolved_tail(mgf_, own_service_mixture(k_, beta_), x);
}

double DEk1Solver::system_time_quantile(double epsilon) const {
  return convolved_quantile(mgf_, own_service_mixture(k_, beta_), epsilon);
}

}  // namespace fpsq::queueing
