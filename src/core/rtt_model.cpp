#include "core/rtt_model.h"

#include <cmath>
#include <stdexcept>

#include "queueing/solver_cache.h"

namespace fpsq::core {

namespace {

using queueing::Complex;
using queueing::ErlangMixMgf;

/// Nudges `pole` away from any pole of `reference` that it (nearly)
/// collides with; eq. (14) is an approximation anyway, so a relative
/// perturbation of 1e-6 is far below its model error.
Complex decollide(Complex pole, const ErlangMixMgf& reference) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool clash = false;
    for (const auto& t : reference.terms()) {
      const double dist = std::abs(t.theta - pole);
      const double scale = std::max(std::abs(t.theta), std::abs(pole));
      if (dist <= 1e3 * ErlangMixMgf::kPoleClash * scale) {
        clash = true;
        break;
      }
    }
    if (!clash) return pole;
    pole *= 1.0 + 1e-6;
  }
  return pole;
}

}  // namespace

queueing::ArrivalTransform tick_arrivals(const AccessScenario& scenario) {
  const double tick_s = scenario.tick_ms * 1e-3;
  return scenario.tick_jitter_cov > 0.0
             ? queueing::gamma_arrivals_mean_cov(tick_s,
                                                 scenario.tick_jitter_cov)
             : queueing::deterministic_arrivals(tick_s);
}

err::Result<RttModel> RttModel::create(const AccessScenario& scenario,
                                       double n_clients) {
  RttModel model;
  if (auto e = model.init(scenario, n_clients)) {
    return *std::move(e);
  }
  return model;
}

RttModel::RttModel(const AccessScenario& scenario, double n_clients) {
  if (auto e = init(scenario, n_clients)) {
    err::throw_solver_error(*e);
  }
}

std::optional<err::SolverError> RttModel::init(
    const AccessScenario& scenario, double n_clients) {
  scenario_ = scenario;
  n_ = n_clients;
  // Own validation failures are recorded here; errors propagated from the
  // solver factories were already counted at their origin.
  const auto fail = [](err::SolverErrorCode code, std::string detail) {
    err::SolverError e{code, std::move(detail)};
    err::record_failure(e);
    return e;
  };
  try {
    scenario_.validate();
  } catch (const std::exception& ex) {
    return fail(err::SolverErrorCode::kBadParameters, ex.what());
  }
  if (!(n_clients > 0.0)) {
    return fail(err::SolverErrorCode::kBadParameters,
                "RttModel: n_clients must be positive");
  }
  if (scenario_.erlang_k < 2) {
    return fail(err::SolverErrorCode::kBadParameters,
                "RttModel: the combined model needs K >= 2 (eq. 34)");
  }
  rho_up_ = scenario_.uplink_load(n_);
  rho_down_ = scenario_.downlink_load(n_);
  if (!(rho_up_ < 1.0) || !(rho_down_ < 1.0)) {
    return fail(err::SolverErrorCode::kUnstable,
                "RttModel: unstable load (rho >= 1)");
  }

  // Downstream: burst service time Erlang(K, beta), b = N P_S 8 / C,
  // behind the tick law's burst arrivals (the paper's D/E_K/1 for
  // deterministic ticks, GI/E_K/1 with Gamma interarrivals for jittered
  // ones).
  const double mean_burst_service_s =
      8.0 * n_ * scenario_.server_packet_bytes / scenario_.bottleneck_bps;
  auto solved = queueing::SolverCache::global().giek1_result(
      scenario_.erlang_k, mean_burst_service_s, tick_arrivals(scenario_));
  if (!solved.ok()) return solved.error();
  downstream_ = std::move(solved).take_or_throw();
  const double beta = scenario_.erlang_k / mean_burst_service_s;
  position_ = std::make_unique<queueing::ErlangMixture>(
      queueing::position_delay_uniform_mixture(scenario_.erlang_k, beta));

  // Upstream: Poisson limit of N periodic sources (Section 3.1).
  const double lambda_up = n_ / (scenario_.tick_ms * 1e-3);
  const double service_up =
      8.0 * scenario_.client_packet_bytes / scenario_.bottleneck_bps;
  auto md1 = queueing::MD1::create(lambda_up, service_up);
  if (!md1.ok()) return md1.error();
  ErlangMixMgf up;
  try {
    // The dominant-pole root search behind eq. (14) can fail to
    // converge; surface that as a structured error.
    up = md1.value().paper_mgf();
  } catch (const std::exception& ex) {
    return fail(err::SolverErrorCode::kNonConvergence,
                std::string("MD1 single-pole MGF: ") + ex.what());
  }
  // Keep the upstream pole clear of the burst-wait pole set before the
  // simple-pole product below.
  if (!up.terms().empty()) {
    const double atom = up.constant_term();
    const Complex coeff = up.terms().front().coeff;
    Complex gamma = up.terms().front().theta;
    gamma = decollide(gamma, burst_wait_mgf());
    up = ErlangMixMgf{atom, {{gamma, coeff}}};
  }
  upstream_ = std::move(up);

  // Combine the simple-pole factors: D_u(s) W(s). Drop W when it is
  // numerically a point mass at zero (and its poles have collapsed onto
  // beta — the low-load regime).
  burst_dropped_ = downstream_->p_wait_zero() > 1.0 - 1e-12;
  if (burst_dropped_) {
    upw_ = upstream_;
  } else {
    try {
      upw_ = multiply(upstream_, burst_wait_mgf());
    } catch (const std::exception& ex) {
      // multiply() refuses (nearly) coincident poles that decollide()
      // could not separate.
      return fail(err::SolverErrorCode::kPoleClash,
                  std::string("RttModel combination: ") + ex.what());
    }
  }

  // Precompile the total law's tail kernel, shared by every subsequent
  // tail/quantile query.
  try {
    total_kernel_ =
        std::make_unique<const queueing::TailKernel>(upw_, *position_);
  } catch (const std::exception& ex) {
    return fail(err::SolverErrorCode::kIllConditioned,
                std::string("RttModel tail kernel: ") + ex.what());
  }
  return std::nullopt;
}

double RttModel::total_mgf_value(double s) const {
  const Complex sc{s, 0.0};
  Complex acc = upstream_.value(sc) * position_->mgf(sc);
  if (!burst_dropped_) {
    acc *= burst_wait_mgf().value(sc);
  }
  return acc.real();
}

double RttModel::total_tail(double x_s) const {
  return total_kernel_->tail(x_s);
}

queueing::TailKernel RttModel::downstream_kernel() const {
  return burst_dropped_ ? queueing::TailKernel(*position_)
                        : queueing::TailKernel(burst_wait_mgf(), *position_);
}

double RttModel::downstream_quantile_ms(double epsilon) const {
  return downstream_kernel().quantile(epsilon) * 1e3;
}

double RttModel::stochastic_quantile_ms(double epsilon) const {
  return total_kernel_->quantile(epsilon) * 1e3;
}

double RttModel::rtt_quantile_ms(double epsilon) const {
  return scenario_.deterministic_rtt_ms() + stochastic_quantile_ms(epsilon);
}

double RttModel::rtt_mean_ms() const {
  return scenario_.deterministic_rtt_ms() + total_kernel_->mean() * 1e3;
}

RttModel::Breakdown RttModel::breakdown_ms(double epsilon) const {
  Breakdown b;
  b.deterministic_ms = scenario_.deterministic_rtt_ms();
  b.upstream_ms = upstream_.quantile(epsilon) * 1e3;
  b.burst_ms =
      burst_dropped_ ? 0.0 : downstream_->wait_quantile(epsilon) * 1e3;
  b.position_ms = position_->quantile(epsilon) * 1e3;
  b.total_ms = rtt_quantile_ms(epsilon);
  return b;
}

}  // namespace fpsq::core
