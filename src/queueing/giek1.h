// GI/E_K/1 — the D/E_K/1 solver generalized to renewal (jittered) burst
// arrivals. Extends the paper's Section 3.2.1 beyond deterministic ticks:
// the measured tick jitter (UT2003: CoV 0.07) can be modeled *exactly*
// instead of only simulated (extension E3).
//
// Derivation (stage-count random walk): with Erlang(K, beta) service, the
// number of exponential stages an arrival finds is a skip-free-down walk;
// its stationary law is a mix of geometrics z_j^n where the z_j are the K
// roots, one per K-th root of unity omega_k, of
//     z = omega_k * [A(beta (1 - z))]^{1/K},      |z| < 1,
// with A(u) = E e^{-u A} the interarrival Laplace transform. This is
// eq. (26) with e^{-uT} replaced by A(u); the paper's deterministic case
// is A(u) = e^{-uT}. The K boundary conditions at the empty system depend
// only on the service structure, so the Appendix-D Lagrange solution
// carries over verbatim:
//     a_j = zeta_j^K prod_{l != j} (zeta_l - 1)/(zeta_l - zeta_j),
// giving W(s) = (1 - sum a_j) + sum a_j alpha_j/(alpha_j - s) with
// alpha_j = beta (1 - zeta_j). (Cross-validated against Lindley Monte
// Carlo in the tests; reduces exactly to DEk1Solver for deterministic A.)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "err/error.h"
#include "queueing/erlang_mix.h"

namespace fpsq::queueing {

/// Interarrival law, represented by the *analytic logarithm* of its
/// Laplace transform, log A(u) with A(u) = E e^{-uA}. The root equation
/// needs A^{1/K} evaluated continuously; a principal-branch pow() wraps
/// once Im(log A) leaves (-pi, pi] (it does, e.g., for deterministic
/// ticks where log A = -uT), so the log must be supplied in a form that
/// is single-valued on the domain Re u > -margin the iteration explores.
struct ArrivalTransform {
  std::function<Complex(Complex)> log_laplace;
  double mean = 0.0;  ///< E[A] [s]
  std::string name;
  /// Numeric identity of the transform, for solver-cache keys: together
  /// with `name`, these values must pin the law exactly (the factories
  /// below fill them in). Leave empty for a custom transform — the
  /// solver cache then refuses to memoize it.
  std::vector<double> key_params;
};

/// Deterministic ticks: A(u) = e^{-u T} (recovers D/E_K/1).
[[nodiscard]] ArrivalTransform deterministic_arrivals(double period_s);

/// Erlang(m, rate) interarrivals: A(u) = (rate/(rate+u))^m.
[[nodiscard]] ArrivalTransform erlang_arrivals(int m, double rate);

/// Gamma(shape, rate) interarrivals — continuously tunable jitter with
/// CoV = 1/sqrt(shape); shape -> infinity recovers deterministic ticks.
[[nodiscard]] ArrivalTransform gamma_arrivals(double shape, double rate);

/// Gamma interarrivals with the given mean and CoV (> 0).
[[nodiscard]] ArrivalTransform gamma_arrivals_mean_cov(double mean_s,
                                                       double cov);

class GiEk1Solver {
 public:
  /// Non-throwing factory (see DEk1Solver::create for the error taxonomy:
  /// kBadParameters, kUnstable, kNonConvergence, kIllConditioned).
  /// Fault-injection site: "queueing.giek1" (tag = rho).
  [[nodiscard]] static err::Result<GiEk1Solver> create(
      int k, double mean_service_s, ArrivalTransform arrivals);

  /// @param k               Erlang service order (>= 1)
  /// @param mean_service_s  mean burst service time [s]
  /// @param arrivals        interarrival transform; rho = b/E[A] < 1
  /// @throws std::invalid_argument on bad parameters or instability;
  ///         err::SolverFailure on numerical failure (wrapper of create()).
  GiEk1Solver(int k, double mean_service_s, ArrivalTransform arrivals);

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] const std::string& arrival_name() const noexcept {
    return arrivals_.name;
  }

  [[nodiscard]] const std::vector<Complex>& zetas() const noexcept {
    return zetas_;
  }
  [[nodiscard]] const std::vector<Complex>& poles() const noexcept {
    return poles_;
  }
  [[nodiscard]] const std::vector<Complex>& weights() const noexcept {
    return weights_;
  }

  [[nodiscard]] const ErlangMixMgf& waiting_mgf() const noexcept {
    return mgf_;
  }
  [[nodiscard]] double p_wait_zero() const { return mgf_.constant_term(); }
  [[nodiscard]] double wait_tail(double x) const { return mgf_.tail(x); }
  [[nodiscard]] double wait_quantile(double epsilon) const {
    return mgf_.quantile(epsilon);
  }
  [[nodiscard]] double mean_wait() const { return mgf_.mean(); }
  [[nodiscard]] bool degenerate() const noexcept { return degenerate_; }

 private:
  GiEk1Solver() = default;  // used by create(); init() populates the state

  [[nodiscard]] std::optional<err::SolverError> init(
      int k, double mean_service_s, ArrivalTransform arrivals);

  int k_ = 0;
  double service_s_ = 0.0;
  ArrivalTransform arrivals_;
  double rho_ = 0.0;
  double beta_ = 0.0;
  bool degenerate_ = false;
  std::vector<Complex> zetas_;
  std::vector<Complex> poles_;
  std::vector<Complex> weights_;
  ErlangMixMgf mgf_;
};

}  // namespace fpsq::queueing
