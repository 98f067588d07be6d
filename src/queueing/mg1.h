// Upstream queueing model (Section 3.1): as the number of periodic
// sources grows at constant load, the aggregate converges to Poisson
// (eq. 11) and the aggregation queue to M/G/1 — here with deterministic
// packet service times (one class: M/D/1; several gamer classes with
// their own packet sizes: a deterministic-mix M/G/1, eq. 13).
//
// Provided per model:
//  * load, Pollaczek-Khinchine mean wait;
//  * dominant pole gamma — the positive root of s = sum_i lambda_i
//    (e^{s d_i} - 1) — with two single-pole MGF approximations:
//    the paper's eq. (14) (atom 1 - rho) and the exact-asymptote variant
//    (atom chosen so the tail constant matches the true residue);
//  * for M/D/1 additionally the exact waiting-time distribution
//    (Erlang/Crommelin series), usable while lambda*t is moderate.
#pragma once

#include <vector>

#include "err/error.h"
#include "queueing/erlang_mix.h"

namespace fpsq::queueing {

/// M/G/1 queue whose service time is a finite mix of deterministic
/// values: class i contributes Poisson arrivals of rate lambda_i and
/// deterministic service d_i.
class MG1DeterministicMix {
 public:
  struct ClassSpec {
    double lambda;     ///< arrival rate [1/s]
    double service_s;  ///< deterministic service time [s]
  };

  /// Non-throwing factory. Error taxonomy:
  ///   - kBadParameters  empty class list, non-positive rate/service
  ///   - kUnstable       rho = sum lambda_i d_i >= 1
  /// Fault-injection site: "queueing.mg1" (tag = rho).
  [[nodiscard]] static err::Result<MG1DeterministicMix> create(
      std::vector<ClassSpec> classes);

  /// @throws std::invalid_argument on any of the create() errors.
  explicit MG1DeterministicMix(std::vector<ClassSpec> classes);

  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double total_lambda() const noexcept { return lambda_; }

  /// Pollaczek-Khinchine mean waiting time: lambda E[S^2] / (2 (1-rho)).
  [[nodiscard]] double mean_wait() const;

  /// Dominant pole gamma > 0 of the waiting-time MGF.
  [[nodiscard]] double dominant_pole() const;

  /// Eq. (14): D_u(s) = (1 - rho) + rho * gamma/(gamma - s).
  [[nodiscard]] ErlangMixMgf paper_mgf() const;

  /// Single-pole approximation with the *exact* asymptotic residue:
  /// P(W > x) ~ c e^{-gamma x} with c = -(1-rho)/g'(gamma).
  [[nodiscard]] ErlangMixMgf asymptotic_mgf() const;

  [[nodiscard]] const std::vector<ClassSpec>& classes() const noexcept {
    return classes_;
  }

 private:
  MG1DeterministicMix() = default;  // used by create(); init() populates

  [[nodiscard]] std::optional<err::SolverError> init(
      std::vector<ClassSpec> classes);

  std::vector<ClassSpec> classes_;
  double lambda_ = 0.0;
  double rho_ = 0.0;
};

/// M/D/1 queue: single deterministic service class, plus the exact
/// waiting-time distribution.
class MD1 {
 public:
  /// Non-throwing factory (same taxonomy and fault site as
  /// MG1DeterministicMix::create).
  [[nodiscard]] static err::Result<MD1> create(double lambda,
                                               double service_s);

  /// @param lambda     Poisson arrival rate [1/s]
  /// @param service_s  deterministic service time [s]
  MD1(double lambda, double service_s);

  [[nodiscard]] double rho() const noexcept { return mix_.rho(); }
  [[nodiscard]] double lambda() const noexcept { return lambda_; }
  [[nodiscard]] double service_s() const noexcept { return service_s_; }

  [[nodiscard]] double mean_wait() const { return mix_.mean_wait(); }
  [[nodiscard]] double dominant_pole() const { return mix_.dominant_pole(); }
  [[nodiscard]] ErlangMixMgf paper_mgf() const { return mix_.paper_mgf(); }
  [[nodiscard]] ErlangMixMgf asymptotic_mgf() const {
    return mix_.asymptotic_mgf();
  }

  /// Exact P(W <= t) via the Erlang/Crommelin alternating series.
  /// Numerically reliable while lambda * t is moderate (<~ 30); callers
  /// needing deeper tails should use the asymptotic form.
  [[nodiscard]] double wait_cdf_exact(double t) const;
  [[nodiscard]] double wait_tail_exact(double t) const {
    return 1.0 - wait_cdf_exact(t);
  }

  /// epsilon-quantile from the exact cdf (bisection).
  [[nodiscard]] double wait_quantile_exact(double epsilon) const;

  /// Loss estimate for the finite-buffer M/D/1/B (B packets including
  /// the one in service): the heavy-traffic relation
  /// P_loss ~ (1 - rho) P(W_inf > (B-1) d), with the infinite-buffer
  /// tail from the exact series while numerically reliable and from the
  /// asymptotic form beyond. Exact for B = 1 (rho/(1+rho)).
  /// @throws std::invalid_argument for B < 1
  [[nodiscard]] double loss_probability_approx(int buffer_packets) const;

 private:
  MD1(double lambda, double service_s, MG1DeterministicMix mix)
      : lambda_(lambda), service_s_(service_s), mix_(std::move(mix)) {}

  double lambda_;
  double service_s_;
  MG1DeterministicMix mix_;
};

}  // namespace fpsq::queueing
