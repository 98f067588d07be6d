// The paper's RTT methodology (Section 3.3 + Section 4): combine the
// upstream M/D/1 delay, the downstream D/E_K/1 burst delay (GI/E_K/1
// with Gamma interarrivals when ticks jitter) and the
// packet-position delay into one law, evaluate its tail, and add the
// deterministic serialization/propagation component.
//
// Combination is mathematically the product of the three MGFs (eq. 35).
// Numerically we combine the two simple-pole factors D_u(s) W(s) by exact
// partial fractions (benign) and fold in the Erlang-mixture position
// delay through queueing::TailKernel, which convolves each simple pole
// with the mixture exactly — see docs/THEORY.md §1.1 for why the
// fully-expanded eq. (35) is avoided at large K.
#pragma once

#include <memory>

#include "core/scenario.h"
#include "err/error.h"
#include "queueing/erlang_mix.h"
#include "queueing/giek1.h"
#include "queueing/mg1.h"
#include "queueing/position_delay.h"
#include "queueing/tail_kernel.h"

namespace fpsq::core {

/// The burst-arrival law of the scenario's server ticks: deterministic
/// every tick_ms (the paper's D/E_K/1), or Gamma with CoV
/// tick_jitter_cov when that is positive.
[[nodiscard]] queueing::ArrivalTransform tick_arrivals(
    const AccessScenario& scenario);

class RttModel {
 public:
  /// Non-throwing factory: the construction path of the serve engine's
  /// ops (core::sweep_load_grid, dimension_for_rtt_checked). The
  /// burst-wait solver comes from queueing::SolverCache::global(), whose
  /// entries are the canonical solves, and the M/D/1 upstream is solved
  /// here, so a model is a pure function of its arguments.
  /// Errors:
  ///   - kBadParameters   invalid scenario, n <= 0, K < 2
  ///   - kUnstable        rho_up >= 1 or rho_down >= 1
  ///   - kNonConvergence  a solver root/fixed-point search failed
  ///   - kPoleClash       upstream/burst pole product refused to combine
  ///   - kIllConditioned  solver weight/atom solution invalid
  /// plus whatever err::fault_check injects at the queueing.* sites.
  [[nodiscard]] static err::Result<RttModel> create(
      const AccessScenario& scenario, double n_clients);

  /// @param scenario   network/traffic parameters (validated)
  /// @param n_clients  number of gamers (may be fractional: the model is
  ///                   parameterized by load; eq. 37 links the two)
  /// @throws std::invalid_argument if either direction is unstable or
  ///         K < 2 (the paper's combined model needs the uniform-position
  ///         MGF of eq. 34, which requires K >= 2)
  RttModel(const AccessScenario& scenario, double n_clients);

  [[nodiscard]] const AccessScenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] double n_clients() const noexcept { return n_; }
  [[nodiscard]] double rho_up() const noexcept { return rho_up_; }
  [[nodiscard]] double rho_down() const noexcept { return rho_down_; }

  /// The three factors of eq. (35).
  [[nodiscard]] const queueing::ErlangMixMgf& upstream_mgf() const noexcept {
    return upstream_;
  }
  /// The burst-wait solver, on the arrival law tick_arrivals(scenario())
  /// (D/E_K/1 for deterministic ticks, GI/E_K/1 for jittered ones).
  [[nodiscard]] const queueing::GiEk1Solver& downstream_solver()
      const noexcept {
    return *downstream_;
  }
  /// The burst-wait MGF W(s).
  [[nodiscard]] const queueing::ErlangMixMgf& burst_wait_mgf()
      const noexcept {
    return downstream_->waiting_mgf();
  }
  [[nodiscard]] const queueing::ErlangMixture& position_mixture()
      const noexcept {
    return *position_;
  }

  /// D_u(s) W(s): the combined simple-pole part (atom + exponential mix).
  [[nodiscard]] const queueing::ErlangMixMgf& upstream_burst_mgf()
      const noexcept {
    return upw_;
  }

  /// Precompiled evaluator of the total stochastic law D_u + W + P
  /// (never null).
  [[nodiscard]] const queueing::TailKernel* total_kernel() const noexcept {
    return total_kernel_.get();
  }
  /// Compiles an evaluator of the downstream law W + P (P alone when the
  /// burst wait was dropped). No rtt, dimension or sweep answer reads
  /// this law, so the model does not build it; validation, `fpsq check`
  /// and tests compile it here, once per call.
  [[nodiscard]] queueing::TailKernel downstream_kernel() const;

  /// Value of the full product MGF D_u(s) W(s) P(s), evaluated from the
  /// factored form (cancellation-free).
  [[nodiscard]] double total_mgf_value(double s) const;

  /// Tail of the total stochastic delay [probability], x in seconds.
  [[nodiscard]] double total_tail(double x_s) const;

  /// epsilon-quantile of the downstream stochastic delay [ms]. Compiles
  /// downstream_kernel() per call.
  [[nodiscard]] double downstream_quantile_ms(double epsilon) const;

  /// epsilon-quantile of the total stochastic delay [ms] (exact
  /// combination, inverted through total_kernel()).
  [[nodiscard]] double stochastic_quantile_ms(double epsilon) const;

  /// epsilon-quantile of the full RTT [ms] — stochastic + deterministic.
  /// The paper's Figures 3-4 plot this with epsilon = 1e-5.
  [[nodiscard]] double rtt_quantile_ms(double epsilon) const;

  /// Mean RTT [ms] (deterministic + mean stochastic delay).
  [[nodiscard]] double rtt_mean_ms() const;

  /// Per-component epsilon-quantiles [ms], for breakdown reporting. The
  /// sum of the three stochastic components is the paper's
  /// "sum of quantiles" shortcut (last paragraph of Section 3.3).
  struct Breakdown {
    double deterministic_ms = 0.0;
    double upstream_ms = 0.0;   ///< quantile of D_u alone
    double burst_ms = 0.0;      ///< quantile of W alone
    double position_ms = 0.0;   ///< quantile of P alone
    double total_ms = 0.0;      ///< full RTT quantile (exact combination)
  };
  [[nodiscard]] Breakdown breakdown_ms(double epsilon) const;

  /// True when the burst-wait factor W was numerically negligible
  /// (P(W = 0) within 1e-12 of 1) and was dropped from the combination.
  [[nodiscard]] bool burst_wait_dropped() const noexcept {
    return burst_dropped_;
  }

 private:
  RttModel() = default;  // used by create(); init() populates the state

  [[nodiscard]] std::optional<err::SolverError> init(
      const AccessScenario& scenario, double n_clients);

  AccessScenario scenario_;
  double n_ = 0.0;
  double rho_up_ = 0.0;
  double rho_down_ = 0.0;
  bool burst_dropped_ = false;
  queueing::ErlangMixMgf upstream_;
  // Shared with queueing::SolverCache (the solvers are immutable after
  // construction, so sharing is safe).
  std::shared_ptr<const queueing::GiEk1Solver> downstream_;
  std::unique_ptr<queueing::ErlangMixture> position_;
  queueing::ErlangMixMgf upw_;  ///< D_u * W (or D_u alone if W dropped)
  // Compiled once in init(); every tail and quantile query below then
  // reuses it instead of re-deriving the combined law per evaluation
  // point.
  std::unique_ptr<const queueing::TailKernel> total_kernel_;
};

/// Section-3.3 approximation of stochastic_quantile_ms() for the A1
/// ablation: the epsilon-quantile [ms] from the dominant pole of eq. (35)
/// alone; 0 when its residue is below epsilon, where the method
/// degenerates.
[[nodiscard]] double dominant_pole_quantile_ms(const RttModel& model,
                                               double epsilon);

/// Section-3.3 approximation of stochastic_quantile_ms() for the A1
/// ablation: the epsilon-quantile [ms] implied by the Chernoff bound of
/// eq. (36) on the factored product MGF (conservative).
[[nodiscard]] double chernoff_quantile_ms(const RttModel& model,
                                          double epsilon);

}  // namespace fpsq::core
