// Multi-server downstream model (Section 3.2, opening paragraph): when
// the bursts of several game servers share one reserved pipe, the queue
// is N*D/G/1 with G a mixture of the per-server Erlang burst laws, "very
// well approximated by M/G/1 if the number of servers is high enough".
//
// A tagged packet of server i then sees
//   burst wait (M/G/1 with Erlang-mixture service)  +
//   position delay within its own server's burst (eq. 34 with K_i).
// The single-server D/E_K/1 model of RttModel is the M = 1 special case
// (with deterministic instead of Poisson burst arrivals).
#pragma once

#include <memory>
#include <vector>

#include "queueing/erlang_mix.h"
#include "queueing/mg1_erlang_service.h"
#include "queueing/position_delay.h"
#include "queueing/tail_kernel.h"

namespace fpsq::core {

/// One game server multiplexed onto the shared pipe.
struct GameServerSpec {
  double tick_ms = 40.0;           ///< burst inter-departure time T_i
  int erlang_k = 9;                ///< burst-size Erlang order K_i
  double mean_burst_bytes = 5000;  ///< mean burst size [bytes]
};

class MultiServerDownstreamModel {
 public:
  /// The shared burst-wait transform is the exact all-pole one
  /// (MG1ErlangMixService::full_mgf) at every order.
  /// @param servers         at least one server
  /// @param bottleneck_bps  shared reserved pipe rate C
  /// @throws std::invalid_argument on bad specs, K_i < 2 or rho >= 1;
  ///         err::SolverFailure when the pole search fails (full_mgf)
  MultiServerDownstreamModel(std::vector<GameServerSpec> servers,
                             double bottleneck_bps);

  [[nodiscard]] double rho() const { return queue_->rho(); }
  [[nodiscard]] double burst_rate() const { return queue_->lambda(); }
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }

  /// The shared-queue burst-wait model.
  [[nodiscard]] const queueing::MG1ErlangMixService& queue() const {
    return *queue_;
  }

  /// Mean burst wait [ms] (Pollaczek-Khinchine, exact).
  [[nodiscard]] double mean_burst_wait_ms() const;

  /// epsilon-quantile of the burst wait alone [ms], from the exact
  /// all-pole transform.
  [[nodiscard]] double burst_wait_quantile_ms(double epsilon) const;

  /// Tail of the delay of a tagged packet of server i: burst wait
  /// convolved with the server's own position delay. x in seconds.
  [[nodiscard]] double packet_delay_tail(std::size_t server, double x_s) const;

  /// epsilon-quantile of the tagged-packet delay for server i [ms].
  [[nodiscard]] double packet_delay_quantile_ms(std::size_t server,
                                                double epsilon) const;

  /// Tail/quantile for a packet in a uniformly random burst (mixture over
  /// servers weighted by burst rate). The quantile runs safeguarded
  /// Newton on the mixture tail with the mixture density as derivative.
  /// @throws err::SolverFailure (kNonConvergence) on inversion failure
  [[nodiscard]] double packet_delay_tail(double x_s) const;
  [[nodiscard]] double packet_delay_quantile_ms(double epsilon) const;

 private:
  std::vector<GameServerSpec> servers_;
  double bottleneck_bps_;
  std::unique_ptr<queueing::MG1ErlangMixService> queue_;
  queueing::ErlangMixMgf wait_mgf_;  ///< exact burst-wait transform
  std::vector<queueing::ErlangMixture> positions_;
  std::vector<double> burst_share_;  ///< per-server burst-rate fraction
  /// One precompiled (wait + position_i) evaluator per server, built once
  /// at construction and reused by every tail/quantile query.
  std::vector<queueing::TailKernel> kernels_;
};

}  // namespace fpsq::core
