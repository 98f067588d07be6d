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

namespace {
constexpr const char* kDeterministicName = "Det";
}  // namespace

ArrivalTransform deterministic_arrivals(double period_s) {
  if (!(period_s > 0.0)) {
    throw std::invalid_argument("deterministic_arrivals: period > 0");
  }
  // log A(u) = -u T: entire, trivially single-valued.
  return {[period_s](Complex u) { return -u * period_s; }, period_s,
          kDeterministicName, {period_s}};
}

ArrivalTransform gamma_arrivals(double shape, double rate) {
  if (!(shape > 0.0) || !(rate > 0.0)) {
    throw std::invalid_argument("gamma_arrivals: shape, rate > 0");
  }
  // log A(u) = -shape log(1 + x) with x = u/rate. The equivalent
  // shape (log rate - log(rate + u)) cancels in proportion to
  // shape |log rate| and leaves a ~1e-12 floor under |F(z) - z|. The
  // iteration keeps Re x > 0 (u = beta (1 - z), |z| < 1), where
  //   log(1 + x) = log1p(2 Re x + |x|^2)/2 + i atan2(Im x, 1 + Re x)
  // is the principal branch, analytic and single-valued.
  return {[shape, rate](Complex u) {
            const Complex x = u / rate;
            const Complex log1p_x{
                0.5 * std::log1p(2.0 * x.real() + std::norm(x)),
                std::atan2(x.imag(), 1.0 + x.real())};
            return -shape * log1p_x;
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

const SolverNames& solver_names(const ArrivalTransform& arrivals) noexcept {
  static constexpr SolverNames kDeterministic{
      "queueing.dek1", "dek1.pole_search", "queueing.cache.dek1.hits",
      "queueing.cache.dek1.misses"};
  static constexpr SolverNames kRenewal{
      "queueing.giek1", "giek1.pole_search", "queueing.cache.giek1.hits",
      "queueing.cache.giek1.misses"};
  return arrivals.name == kDeterministicName ? kDeterministic : kRenewal;
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
  const SolverNames& names = solver_names(arrivals_);
  const obs::ScopedSolverContext obs_ctx(names.site);
  FPSQ_SPAN(names.span);
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
  if (auto fault = err::fault_check(names.site, rho_)) {
    return fault;
  }
  beta_ = static_cast<double>(k_) / service_s_;

  // Roots: z = omega_k [A(beta (1 - z))]^{1/K}, |z| < 1, polished to
  // |F(z) - z| < 1e-15 for every law. Coarser roots do not survive the
  // low-load tail: there the weights a_j ~ zeta_j^K are tiny and nearly
  // cancel, so P(W > x) amplifies a root error by up to ~1e8 (K = 16,
  // rho 0.36, epsilon 2e-7: a 1e-12 stop moves the burst quantile by
  // 1e-5 relative).
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
    // Central-difference derivative for the Newton cutover.
    auto dmap = [&map](Complex z) {
      const double h = 1e-7;
      return (map(z + Complex{h, 0.0}) - map(z - Complex{h, 0.0})) /
             (2.0 * h);
    };
    // Seed policy (deterministic in the parameters): our own root j-1
    // rotated one K-th of a turn (the roots lie approximately on a
    // circle), else the cold start z = 0.
    Complex z0{0.0, 0.0};
    if (j > 0) z0 = zetas_.back() * unit_rot;
    if (!(std::abs(z0) < 1.0)) z0 = Complex{0.0, 0.0};
    const auto res = math::solve_fixed_point(map, dmap, z0, 1e-15, 20000);
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

  // Appendix-D weights (service-side boundary conditions, so the same
  // for every arrival law).
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

  // Degenerate regime: all poles collapse onto beta when |zeta| drops
  // below numerical resolution; then P(W > 0) <= sum |a_j| ~ |zeta| <<
  // 1e-7 and W is a point mass at zero.
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
  obs::record_pole_diagnostics(names.site, min_rel,
                               math::vandermonde_condition_estimate(zetas_));
  if (min_rel <= 10.0 * ErlangMixMgf::kPoleClash) {
    degenerate_ = true;
    mgf_ = ErlangMixMgf{};  // point mass at zero; weights remain inspectable
    return std::nullopt;
  }

  // Assemble the MGF: constant + simple poles. The imaginary parts of
  // conjugate-pair weights cancel exactly in theory; the atom keeps only
  // the real part of their sum.
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
