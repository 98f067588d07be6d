// Exact transform-domain solution of the D/E_K/1 queue (Section 3.2.1):
// deterministic burst arrivals every T seconds, Erlang(K, beta) service
// requirement (burst size / link rate), waiting time W of the n-th burst.
//
// The waiting-time MGF is
//   W(s) = (1 - sum_j a_j) + sum_{j=1..K} a_j alpha_j / (alpha_j - s),
// with poles alpha_j = beta (1 - zeta_j) where zeta_j is the unique root
// in Re z < 1 of
//   z = exp((z - 1)/rho + 2 pi i (j-1)/K)          (eq. 26)
// and weights (eq. 27; derivation in DESIGN.md via a transposed
// Vandermonde system)
//   a_j = zeta_j^K  prod_{k != j} (zeta_k - 1)/(zeta_k - zeta_j).
// K = 1 recovers the classic D/M/1 result a_1 = zeta_1.
#pragma once

#include <vector>

#include "err/error.h"
#include "queueing/erlang_mix.h"

namespace fpsq::queueing {

class DEk1Solver {
 public:
  /// Non-throwing factory: the preferred construction path on hot loops
  /// (sweeps, dimensioning grids). Returns a structured err::SolverError
  /// instead of throwing:
  ///   - kBadParameters   k < 1 or non-positive times
  ///   - kUnstable        rho = b/T >= 1
  ///   - kNonConvergence  zeta fixed-point failure / root outside Re z < 1
  ///   - kIllConditioned  Vandermonde weights yield an atom outside [0, 1]
  /// Fault-injection site: "queueing.dek1" (tag = rho).
  [[nodiscard]] static err::Result<DEk1Solver> create(
      int k, double mean_service_s, double period_s);

  /// @param k               Erlang order of the burst size (>= 1)
  /// @param mean_service_s  mean burst service time b = E[burst]/rate [s]
  /// @param period_s        burst inter-arrival time T [s]
  /// @throws std::invalid_argument unless 0 < b < T (stability) and k >= 1
  /// @throws err::SolverFailure on numerical failure (non-convergence,
  ///         ill-conditioned weights); thin wrapper over create().
  DEk1Solver(int k, double mean_service_s, double period_s);

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] double period_s() const noexcept { return period_s_; }
  [[nodiscard]] double mean_service_s() const noexcept { return service_s_; }

  /// Roots zeta_j of eq. (26), j = 1..K (j = 1 is the real, largest-
  /// modulus root giving the dominant pole).
  [[nodiscard]] const std::vector<Complex>& zetas() const noexcept {
    return zetas_;
  }
  /// Poles alpha_j = beta (1 - zeta_j).
  [[nodiscard]] const std::vector<Complex>& poles() const noexcept {
    return poles_;
  }
  /// Weights a_j of eq. (27).
  [[nodiscard]] const std::vector<Complex>& weights() const noexcept {
    return weights_;
  }

  /// The waiting-time MGF W(s) as an Erlang mix.
  [[nodiscard]] const ErlangMixMgf& waiting_mgf() const noexcept {
    return mgf_;
  }

  /// P(W = 0): the atom 1 - sum_j a_j.
  [[nodiscard]] double p_wait_zero() const;

  /// P(W > x) [s].
  [[nodiscard]] double wait_tail(double x) const;

  /// epsilon-quantile of W [s].
  [[nodiscard]] double wait_quantile(double epsilon) const;

  /// E[W] [s].
  [[nodiscard]] double mean_wait() const;

  /// Tail / quantile of the *system time* W + B: the time from a burst's
  /// arrival until it has fully drained (its own Erlang(K, beta) service
  /// included). Evaluated by the stable convolution path.
  [[nodiscard]] double system_time_tail(double x) const;
  [[nodiscard]] double system_time_quantile(double epsilon) const;

  /// Dominant pole alpha_1 (real): asymptotic tail decay rate.
  [[nodiscard]] double dominant_pole() const;

  /// True when the load is so low that the poles alpha_j cluster within
  /// numerical resolution around beta (|zeta_j| ~ e^{-1/rho} below ~1e-8).
  /// In that regime P(W > 0) <= sum |a_j| ~ |zeta| << 1e-7, so the solver
  /// collapses W to a point mass at zero; waiting_mgf() is then the
  /// constant 1 (zetas/poles/weights remain available for inspection).
  [[nodiscard]] bool degenerate() const noexcept { return degenerate_; }

 private:
  DEk1Solver() = default;  // used by create(); init() populates the state

  /// Does the actual solve; returns the error instead of throwing.
  [[nodiscard]] std::optional<err::SolverError> init(
      int k, double mean_service_s, double period_s);

  int k_ = 0;
  double service_s_ = 0.0;
  double period_s_ = 0.0;
  double rho_ = 0.0;
  double beta_ = 0.0;
  std::vector<Complex> zetas_;
  std::vector<Complex> poles_;
  std::vector<Complex> weights_;
  ErlangMixMgf mgf_;
  bool degenerate_ = false;
};

}  // namespace fpsq::queueing
