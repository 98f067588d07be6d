#include "queueing/mg1.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "err/fault_injection.h"
#include "math/roots.h"
#include "obs/solver_telemetry.h"
#include "obs/trace.h"

namespace fpsq::queueing {

err::Result<MG1DeterministicMix> MG1DeterministicMix::create(
    std::vector<ClassSpec> classes) {
  MG1DeterministicMix mix;
  if (auto e = mix.init(std::move(classes))) {
    err::record_failure(*e);
    return *std::move(e);
  }
  return mix;
}

MG1DeterministicMix::MG1DeterministicMix(std::vector<ClassSpec> classes) {
  if (auto e = init(std::move(classes))) {
    err::record_failure(*e);
    err::throw_solver_error(*e);
  }
}

std::optional<err::SolverError> MG1DeterministicMix::init(
    std::vector<ClassSpec> classes) {
  classes_ = std::move(classes);
  lambda_ = 0.0;
  rho_ = 0.0;
  if (classes_.empty()) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "MG1DeterministicMix: no classes"};
  }
  for (const auto& c : classes_) {
    if (!(c.lambda > 0.0) || !(c.service_s > 0.0)) {
      return err::SolverError{
          err::SolverErrorCode::kBadParameters,
          "MG1DeterministicMix: rates and services must be positive"};
    }
    lambda_ += c.lambda;
    rho_ += c.lambda * c.service_s;
  }
  if (!(rho_ < 1.0)) {
    return err::SolverError{err::SolverErrorCode::kUnstable,
                            "MG1DeterministicMix: unstable (rho >= 1)"};
  }
  if (auto fault = err::fault_check("queueing.mg1", rho_)) {
    return fault;
  }
  return std::nullopt;
}

double MG1DeterministicMix::mean_wait() const {
  // lambda E[S^2] / (2(1-rho)) with E[S^2] = sum (lambda_i/lambda) d_i^2.
  double es2_lambda = 0.0;  // lambda * E[S^2]
  for (const auto& c : classes_) {
    es2_lambda += c.lambda * c.service_s * c.service_s;
  }
  return es2_lambda / (2.0 * (1.0 - rho_));
}

double MG1DeterministicMix::dominant_pole() const {
  const obs::ScopedSolverContext obs_ctx("queueing.mg1");
  FPSQ_SPAN("mg1.dominant_pole");
  // g(s) = s - sum_i lambda_i (e^{s d_i} - 1); g(0) = 0, g'(0) = 1 - rho
  // > 0, g concave down eventually: the positive root is unique.
  auto g = [this](double s) {
    double acc = s;
    for (const auto& c : classes_) {
      acc -= c.lambda * std::expm1(s * c.service_s);
    }
    return acc;
  };
  double d_max = 0.0;
  for (const auto& c : classes_) {
    d_max = std::max(d_max, c.service_s);
  }
  // g > 0 just right of 0; expand until g < 0. The root is O(1/d_max),
  // so the tolerance must scale with it: an absolute 1e-13 sits below
  // the double spacing there and can never be met.
  const auto r = obs::require_converged(
      math::find_root_expanding(g, 1e-9 / d_max, 0.1 / d_max, 1e-12 / d_max),
      "MG1DeterministicMix::dominant_pole");
  return r.root;
}

ErlangMixMgf MG1DeterministicMix::paper_mgf() const {
  return ErlangMixMgf::atom_plus_exponential(1.0 - rho_,
                                             Complex{dominant_pole(), 0.0});
}

ErlangMixMgf MG1DeterministicMix::asymptotic_mgf() const {
  const double gamma = dominant_pole();
  // g'(gamma) = 1 - sum_i lambda_i d_i e^{gamma d_i} (negative at the
  // root); tail constant c = -(1-rho)/g'(gamma).
  double gp = 1.0;
  for (const auto& c : classes_) {
    gp -= c.lambda * c.service_s * std::exp(gamma * c.service_s);
  }
  if (!(gp < 0.0)) {
    throw std::runtime_error(
        "MG1DeterministicMix::asymptotic_mgf: unexpected g'(gamma) >= 0");
  }
  const double tail_const = -(1.0 - rho_) / gp;
  return ErlangMixMgf::atom_plus_exponential(1.0 - tail_const,
                                             Complex{gamma, 0.0});
}

err::Result<MD1> MD1::create(double lambda, double service_s) {
  auto mix = MG1DeterministicMix::create({{lambda, service_s}});
  if (!mix.ok()) return mix.error();
  return MD1(lambda, service_s, std::move(mix).take_or_throw());
}

MD1::MD1(double lambda, double service_s)
    : lambda_(lambda), service_s_(service_s),
      mix_({{lambda, service_s}}) {}

double MD1::wait_cdf_exact(double t) const {
  if (t < 0.0) return 0.0;
  const double rho = mix_.rho();
  // P(W <= t) = (1-rho) sum_{k=0}^{floor(t/d)} (lambda(kd-t))^k / k!
  //             * exp(-lambda(kd-t))              [Erlang / Crommelin]
  const auto k_max = static_cast<long>(std::floor(t / service_s_));
  long double acc = 0.0L;
  for (long k = 0; k <= k_max; ++k) {
    // With u = lambda (t - kd) >= 0 the k-th term is (-1)^k u^k/k! e^{u};
    // assemble its magnitude in log space to postpone overflow.
    const long double u =
        static_cast<long double>(lambda_) *
        (t - static_cast<long double>(k) * service_s_);  // >= 0
    long double log_term = u;
    if (k > 0) {
      log_term +=
          static_cast<long double>(k) * std::log(u > 0 ? u : 1e-300L);
      for (long j = 2; j <= k; ++j) {
        log_term -= std::log(static_cast<long double>(j));
      }
    }
    const long double mag = std::exp(log_term);
    acc += (k % 2 == 0) ? mag : -mag;
  }
  const double result = static_cast<double>((1.0L - rho) * acc);
  // Clamp the inevitable rounding at the edges of validity.
  return std::min(1.0, std::max(0.0, result));
}

double MD1::loss_probability_approx(int buffer_packets) const {
  if (buffer_packets < 1) {
    throw std::invalid_argument(
        "MD1::loss_probability_approx: buffer_packets >= 1");
  }
  const double rho = mix_.rho();
  const double horizon =
      (static_cast<double>(buffer_packets) - 1.0) * service_s_;
  if (horizon <= 0.0) {
    // Single slot: arrivals during a service are lost; renewal-reward
    // gives exactly rho/(1 + rho).
    return rho / (1.0 + rho);
  }
  // Heavy-traffic relation P_loss ~ (1 - rho) P(W_inf > (B-1) d): the
  // infinite-buffer overflow tail, corrected by the (1 - rho) factor that
  // the finite system's renewal structure contributes (exact for M/M/1).
  // The exact alternating series is reliable while lambda * t stays
  // moderate; hand over to the asymptotic exponential beyond that.
  const double tail = lambda_ * horizon <= 25.0
                          ? wait_tail_exact(horizon)
                          : mix_.asymptotic_mgf().tail(horizon);
  return (1.0 - rho) * tail;
}

double MD1::wait_quantile_exact(double epsilon) const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("MD1::wait_quantile_exact: epsilon in (0,1)");
  }
  if (wait_tail_exact(0.0) <= epsilon) return 0.0;
  double hi = service_s_;
  int guard = 0;
  while (wait_tail_exact(hi) > epsilon) {
    hi *= 2.0;
    if (++guard > 100) {
      throw std::runtime_error("MD1::wait_quantile_exact: bracket failure");
    }
  }
  double lo = 0.0;
  for (int i = 0; i < 200 && hi - lo > 1e-13 * (1.0 + hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (wait_tail_exact(mid) > epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace fpsq::queueing
