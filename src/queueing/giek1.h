// GI/E_K/1 — the downstream burst wait of Section 3.2.1 for any renewal
// burst-arrival law. The paper's D/E_K/1 (deterministic ticks every T)
// is the law A(u) = e^{-uT}; Gamma-jittered ticks (the measured UT2003
// tick CoV 0.07) run through the same solver (extension E3).
//
// Derivation (stage-count random walk): with Erlang(K, beta) service, the
// number of exponential stages an arrival finds is a skip-free-down walk;
// its stationary law is a mix of geometrics z_j^n where the z_j are the K
// roots, one per K-th root of unity omega_k, of
//     z = omega_k * [A(beta (1 - z))]^{1/K},      |z| < 1,
// with A(u) = E e^{-u A} the interarrival Laplace transform. For
// deterministic ticks log A(beta (1 - z))/K = (z - 1)/rho, which is the
// paper's eq. (26). The K boundary conditions at the empty system depend
// only on the service structure, so the Appendix-D Lagrange solution
// holds for every law:
//     a_j = zeta_j^K prod_{l != j} (zeta_l - 1)/(zeta_l - zeta_j),
// giving W(s) = (1 - sum a_j) + sum a_j alpha_j/(alpha_j - s) with
// alpha_j = beta (1 - zeta_j). K = 1 recovers GI/M/1 (a_1 = zeta_1).
// (Cross-validated against Lindley Monte Carlo in the tests.)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "err/error.h"
#include "obs/metrics.h"
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

/// Deterministic ticks: A(u) = e^{-u T} (the paper's D/E_K/1).
[[nodiscard]] ArrivalTransform deterministic_arrivals(double period_s);

/// Gamma(shape, rate) interarrivals — continuously tunable jitter with
/// CoV = 1/sqrt(shape); shape -> infinity recovers deterministic ticks.
[[nodiscard]] ArrivalTransform gamma_arrivals(double shape, double rate);

/// Gamma interarrivals with the given mean and CoV (> 0).
[[nodiscard]] ArrivalTransform gamma_arrivals_mean_cov(double mean_s,
                                                       double cov);

/// Telemetry names of a solve, chosen by its arrival law: deterministic
/// ticks report under the paper's D/E_K/1 names, every other law under
/// the GI/E_K/1 ones. The same test picks GiEk1Solver's root path
/// (closed-form Lambert-W roots for deterministic ticks).
struct SolverNames {
  const char* site;          ///< "queueing.dek1" / "queueing.giek1"
  const char* span;          ///< "dek1.pole_search" / "giek1.pole_search"
  const char* cache_hits;    ///< "queueing.cache.{dek1,giek1}.hits"
  const char* cache_misses;  ///< "queueing.cache.{dek1,giek1}.misses"
  obs::Counter hits;         ///< registry handle of `cache_hits`
  obs::Counter misses;       ///< registry handle of `cache_misses`
};
[[nodiscard]] const SolverNames& solver_names(
    const ArrivalTransform& arrivals) noexcept;

class GiEk1Solver {
 public:
  /// Non-throwing factory: the construction path on hot loops (sweeps,
  /// dimensioning grids). Returns a structured err::SolverError instead
  /// of throwing:
  ///   - kBadParameters   k < 1, non-positive times or no transform
  ///   - kUnstable        rho = b/E[A] >= 1
  ///   - kNonConvergence  Lambert-W / zeta fixed-point failure, or a root
  ///                      outside |z| < 1
  ///   - kIllConditioned  Lagrange weights yield an atom outside [0, 1]
  /// Fault-injection site: solver_names(arrivals).site (tag = rho).
  [[nodiscard]] static err::Result<GiEk1Solver> create(
      int k, double mean_service_s, ArrivalTransform arrivals);

  /// @param k               Erlang service order (>= 1)
  /// @param mean_service_s  mean burst service time b = E[burst]/rate [s]
  /// @param arrivals        interarrival transform; rho = b/E[A] < 1
  /// @throws std::invalid_argument on bad parameters or instability;
  ///         err::SolverFailure on numerical failure (wrapper of create()).
  GiEk1Solver(int k, double mean_service_s, ArrivalTransform arrivals);

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] const ArrivalTransform& arrivals() const noexcept {
    return arrivals_;
  }

  /// Roots zeta_j, j = 1..K, in rotation order omega_j = e^{2 pi i
  /// (j-1)/K} (j = 1 is the real, largest-modulus root giving the
  /// dominant pole).
  [[nodiscard]] const std::vector<Complex>& zetas() const noexcept {
    return zetas_;
  }
  /// Poles alpha_j = beta (1 - zeta_j).
  [[nodiscard]] const std::vector<Complex>& poles() const noexcept {
    return poles_;
  }
  /// Appendix-D weights a_j.
  [[nodiscard]] const std::vector<Complex>& weights() const noexcept {
    return weights_;
  }

  /// The waiting-time MGF W(s) as an Erlang mix.
  [[nodiscard]] const ErlangMixMgf& waiting_mgf() const noexcept {
    return mgf_;
  }
  /// P(W = 0): the atom 1 - sum_j a_j.
  [[nodiscard]] double p_wait_zero() const { return mgf_.constant_term(); }
  /// P(W > x) [s].
  [[nodiscard]] double wait_tail(double x) const { return mgf_.tail(x); }
  /// epsilon-quantile of W [s].
  [[nodiscard]] double wait_quantile(double epsilon) const {
    return mgf_.quantile(epsilon);
  }
  /// E[W] [s].
  [[nodiscard]] double mean_wait() const { return mgf_.mean(); }

  /// True when the load is so low that the poles alpha_j cluster within
  /// numerical resolution around beta (|zeta_j| below ~1e-8). In that
  /// regime P(W > 0) <= sum |a_j| ~ |zeta| << 1e-7, so the solver
  /// collapses W to a point mass at zero; waiting_mgf() is then the
  /// constant 1 (zetas/poles/weights remain available for inspection).
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
