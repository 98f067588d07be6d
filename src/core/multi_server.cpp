#include "core/multi_server.h"

#include <cmath>
#include <stdexcept>

#include "queueing/inversion.h"

namespace fpsq::core {

MultiServerDownstreamModel::MultiServerDownstreamModel(
    std::vector<GameServerSpec> servers, double bottleneck_bps)
    : servers_(std::move(servers)), bottleneck_bps_(bottleneck_bps) {
  if (servers_.empty()) {
    throw std::invalid_argument("MultiServerDownstreamModel: no servers");
  }
  if (!(bottleneck_bps > 0.0)) {
    throw std::invalid_argument(
        "MultiServerDownstreamModel: capacity must be > 0");
  }
  double lambda = 0.0;
  std::vector<queueing::MG1ErlangMixService::Component> components;
  components.reserve(servers_.size());
  burst_share_.reserve(servers_.size());
  positions_.reserve(servers_.size());
  for (const auto& s : servers_) {
    if (!(s.tick_ms > 0.0) || s.erlang_k < 2 ||
        !(s.mean_burst_bytes > 0.0)) {
      throw std::invalid_argument(
          "MultiServerDownstreamModel: bad server spec (needs K >= 2)");
    }
    const double rate_i = 1.0 / (s.tick_ms * 1e-3);  // bursts per second
    const double mean_service_s =
        8.0 * s.mean_burst_bytes / bottleneck_bps_;
    const double beta_i = static_cast<double>(s.erlang_k) / mean_service_s;
    lambda += rate_i;
    components.push_back({rate_i, s.erlang_k, beta_i});
    positions_.push_back(
        queueing::position_delay_uniform_mixture(s.erlang_k, beta_i));
  }
  for (const auto& c : components) {
    burst_share_.push_back(c.weight / lambda);
  }
  queue_ = std::make_unique<queueing::MG1ErlangMixService>(
      lambda, std::move(components));
  wait_mgf_ = queue_->full_mgf();
  // Precompile one (wait + position_i) kernel per server: every
  // packet-delay tail/quantile below reuses these instead of integrating
  // the convolution afresh at each evaluation point.
  kernels_.reserve(positions_.size());
  for (const auto& pos : positions_) {
    kernels_.emplace_back(wait_mgf_, pos);
  }
}

double MultiServerDownstreamModel::mean_burst_wait_ms() const {
  return queue_->mean_wait() * 1e3;
}

double MultiServerDownstreamModel::burst_wait_quantile_ms(
    double epsilon) const {
  return wait_mgf_.quantile(epsilon) * 1e3;
}

double MultiServerDownstreamModel::packet_delay_tail(std::size_t server,
                                                     double x_s) const {
  if (server >= servers_.size()) {
    throw std::out_of_range("MultiServerDownstreamModel: server index");
  }
  return kernels_[server].tail(x_s);
}

double MultiServerDownstreamModel::packet_delay_quantile_ms(
    std::size_t server, double epsilon) const {
  if (server >= servers_.size()) {
    throw std::out_of_range("MultiServerDownstreamModel: server index");
  }
  return kernels_[server].quantile(epsilon) * 1e3;
}

double MultiServerDownstreamModel::packet_delay_tail(double x_s) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    acc += burst_share_[i] * packet_delay_tail(i, x_s);
  }
  return acc;
}

double MultiServerDownstreamModel::packet_delay_quantile_ms(
    double epsilon) const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument(
        "MultiServerDownstreamModel: epsilon in (0,1)");
  }
  // Safeguarded Newton on the server mixture, with the mixture density as
  // the analytic derivative. Failures surface as err::SolverFailure
  // (kNonConvergence) instead of a raw bracket-failure runtime_error.
  double scale = 0.0;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    scale += burst_share_[i] * kernels_[i].mean();
  }
  return queueing::invert_tail_newton(
             [this](double x) { return packet_delay_tail(x); },
             [this](double x) {
               double acc = 0.0;
               for (std::size_t i = 0; i < kernels_.size(); ++i) {
                 acc += burst_share_[i] * kernels_[i].density(x);
               }
               return acc;
             },
             epsilon, scale, "core.multi_server") *
         1e3;
}

}  // namespace fpsq::core
