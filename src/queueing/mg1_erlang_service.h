// M/G/1 with Erlang-mixture service — the multi-server downstream model
// sketched at the start of Section 3.2: when the bursts of several game
// servers share one reserved pipe, the burst arrival process is a
// superposition of periodic streams (-> Poisson for many servers, by the
// same eq.-11 argument as upstream) and the service requirement is the
// arrival-rate-weighted mixture of the per-server Erlang burst laws:
// the N*D/G/1 queue with G = sum of Erlangs, approximated by M/G/1.
//
// Provided: exact load and Pollaczek-Khinchine mean, the dominant pole
// gamma (unique positive root of s = lambda (B(s) - 1) below the smallest
// Erlang rate, by a real-axis root solve), and the exact all-pole
// waiting-time MGF.
#pragma once

#include <vector>

#include "queueing/erlang_mix.h"

namespace fpsq::queueing {

class MG1ErlangMixService {
 public:
  /// One service-mixture component: Erlang(k, rate), picked w.p. weight.
  struct Component {
    double weight = 0.0;  ///< positive; normalized to sum to 1
    int k = 1;            ///< Erlang order (>= 1)
    double rate = 0.0;    ///< Erlang rate [1/s]
  };

  /// @param lambda      Poisson burst arrival rate [1/s]
  /// @param components  at least one component
  /// @throws std::invalid_argument on bad parameters or rho >= 1
  MG1ErlangMixService(double lambda, std::vector<Component> components);

  [[nodiscard]] double lambda() const noexcept { return lambda_; }
  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] double mean_service() const noexcept { return es_; }

  /// Pollaczek-Khinchine mean wait: lambda E[S^2] / (2 (1 - rho)).
  [[nodiscard]] double mean_wait() const;

  /// Service-time MGF B(s) (real s below the smallest component rate).
  [[nodiscard]] double service_mgf(double s) const;

  /// Dominant pole of the waiting-time MGF (Brent on the real axis).
  [[nodiscard]] double dominant_pole() const;

  /// The exact waiting-time MGF: all total_order() poles of
  /// W(s) = (1 - rho) s / (s - lambda (B(s) - 1)) with their residues
  /// and the atom P(W = 0) = 1 - rho. The poles are found together by
  /// Aberth-Ehrlich sweeps on the factored transform, seeded per rate
  /// group by eq. 26's fixed point (docs/THEORY.md §5), at any order.
  /// @throws err::SolverFailure — kNonConvergence when the sweeps hit
  ///         their cap, kPoleClash when two poles lie within 1e-7
  ///         relative of each other, kIllConditioned when the pole set
  ///         fails its completeness checks (atom, probe point)
  [[nodiscard]] ErlangMixMgf full_mgf() const;

  /// Total Erlang order sum(K_i) over distinct rates — the exact pole
  /// count of full_mgf().
  [[nodiscard]] int total_order() const;

  [[nodiscard]] const std::vector<Component>& components() const noexcept {
    return components_;
  }

 private:
  double lambda_;
  std::vector<Component> components_;
  double es_ = 0.0;   ///< E[S]
  double es2_ = 0.0;  ///< E[S^2]
  double rho_ = 0.0;
  double min_rate_ = 0.0;
};

}  // namespace fpsq::queueing
