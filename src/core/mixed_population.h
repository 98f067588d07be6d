// Heterogeneous gamer populations (Section 3.1, eq. 13): several classes
// of gamers — different games, hence different packet sizes and tick
// intervals — share the upstream aggregation queue. Each class converges
// to a Poisson stream in the many-users limit, so the queue is an M/G/1
// whose service law is the rate-weighted mix of the deterministic
// per-class packet service times.
#pragma once

#include <memory>
#include <vector>

#include "queueing/erlang_mix.h"
#include "queueing/mg1.h"

namespace fpsq::core {

/// One class of gamers sending periodic upstream packets.
struct GamerClass {
  double n_clients = 0.0;      ///< users in this class
  double packet_bytes = 80.0;  ///< upstream packet size P_C,i
  double tick_ms = 40.0;       ///< per-client period T_i
};

/// Upstream aggregation-queue model for a mixed population (eq. 13).
class MixedUpstreamModel {
 public:
  /// @param classes        at least one class with n_clients > 0
  /// @param bottleneck_bps shared upstream capacity C
  /// @throws std::invalid_argument on bad classes or instability
  MixedUpstreamModel(std::vector<GamerClass> classes,
                     double bottleneck_bps);

  [[nodiscard]] double rho() const { return mix_->rho(); }
  [[nodiscard]] double total_packet_rate() const {
    return mix_->total_lambda();
  }
  [[nodiscard]] double mean_wait_ms() const {
    return mix_->mean_wait() * 1e3;
  }

  /// Waiting-time MGF in the single-pole form of eq. (14) (atom 1 - rho).
  [[nodiscard]] queueing::ErlangMixMgf mgf() const {
    return mix_->paper_mgf();
  }

  /// epsilon-quantile of the upstream queueing delay [ms], from mgf().
  [[nodiscard]] double wait_quantile_ms(double epsilon) const;

  [[nodiscard]] const queueing::MG1DeterministicMix& queue() const {
    return *mix_;
  }
  [[nodiscard]] const std::vector<GamerClass>& classes() const {
    return classes_;
  }

 private:
  std::vector<GamerClass> classes_;
  double bottleneck_bps_;
  std::unique_ptr<queueing::MG1DeterministicMix> mix_;
};

}  // namespace fpsq::core
