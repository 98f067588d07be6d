#include "reference/ndd1.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "math/special.h"
#include "obs/solver_telemetry.h"
#include "reference/minimize.h"

namespace fpsq::queueing {

namespace {

void validate(const NDD1Params& q) {
  if (q.n < 1 || !(q.period_s > 0.0) || !(q.service_s > 0.0)) {
    throw std::invalid_argument("NDD1Params: bad parameters");
  }
  if (!(ndd1_load(q) < 1.0)) {
    throw std::invalid_argument("NDD1Params: unstable (rho >= 1)");
  }
}

/// Chernoff bound on log P(Bin(n, q) >= a) for real a; 0 when a <= n q
/// (trivial bound), -inf when a > n (impossible event).
double binomial_chernoff_log(int n, double q, double a) {
  if (a <= static_cast<double>(n) * q) return 0.0;
  if (a > static_cast<double>(n)) {
    return -std::numeric_limits<double>::infinity();
  }
  const double frac = a / static_cast<double>(n);
  if (frac >= 1.0 - 1e-12) {
    // All sources must fire: P = q^n exactly.
    return static_cast<double>(n) * std::log(q);
  }
  // KL divergence form: -n * KL(frac || q) (optimal exponential tilt).
  return -static_cast<double>(n) *
         (frac * std::log(frac / q) +
          (1.0 - frac) * std::log((1.0 - frac) / (1.0 - q)));
}

}  // namespace

double ndd1_load(const NDD1Params& q) {
  return static_cast<double>(q.n) * q.service_s / q.period_s;
}

double ndd1_benes_tail(const NDD1Params& q, double x) {
  validate(q);
  if (x < 0.0) return 1.0;
  // P(W > x) ~ sup_t P(Bin(N, t/D) >= k) over windows t = k d - x at
  // which the k-th arrival would still leave backlog x.
  double best = 0.0;
  const auto k_min =
      static_cast<int>(std::floor(x / q.service_s)) + 1;
  for (int k = std::max(1, k_min); k <= q.n; ++k) {
    const double t = static_cast<double>(k) * q.service_s - x;
    if (t <= 0.0) continue;
    const double p_window = std::min(t / q.period_s, 1.0);
    best = std::max(best, math::binomial_sf(q.n, p_window, k));
  }
  return std::min(1.0, best);
}

double ndd1_union_tail(const NDD1Params& q, double x) {
  validate(q);
  if (x < 0.0) return 1.0;
  double sum = 0.0;
  const auto k_min = static_cast<int>(std::floor(x / q.service_s)) + 1;
  for (int k = std::max(1, k_min); k <= q.n; ++k) {
    const double t = static_cast<double>(k) * q.service_s - x;
    if (t <= 0.0) continue;
    const double p_window = std::min(t / q.period_s, 1.0);
    sum += math::binomial_sf(q.n, p_window, k);
  }
  return std::min(1.0, sum);
}

double ndd1_chernoff_tail(const NDD1Params& q, double x) {
  validate(q);
  if (x < 0.0) return 1.0;
  // log P ~ sup_{0 < t <= D} [Chernoff log-bound of Bin(N, t/D) >= (x+t)/d].
  // Windows with (x+t)/d > N cannot produce the backlog at all;
  // binomial_chernoff_log returns -inf there.
  auto objective = [&q, x](double t) {
    const double a = (x + t) / q.service_s;  // packets needed in window t
    return binomial_chernoff_log(q.n, t / q.period_s, a);
  };
  // Coarse scan over the feasible windows, then golden refinement. The
  // backlog is impossible once (x + t)/d > N, so restrict to t <= t_max.
  const double t_max = std::min(
      q.period_s, static_cast<double>(q.n) * q.service_s - x);
  if (t_max <= 0.0) return 0.0;  // x beyond the maximum possible backlog
  constexpr int kGrid = 256;
  double best_t = 0.5 * t_max;
  double best_v = -std::numeric_limits<double>::infinity();
  for (int i = 1; i <= kGrid; ++i) {
    const double t =
        t_max * static_cast<double>(i) / static_cast<double>(kGrid);
    const double v = objective(t);
    if (v > best_v) {
      best_v = v;
      best_t = t;
    }
  }
  const double lo = std::max(1e-12 * t_max, best_t - t_max / kGrid);
  const double hi = std::min(t_max, best_t + t_max / kGrid);
  const obs::ScopedSolverContext obs_ctx("queueing.ndd1");
  const auto refined = obs::require_converged(
      math::golden_section([&objective](double t) { return -objective(t); },
                           lo, hi, 1e-12),
      "ndd1_chernoff_tail");
  best_v = std::max(best_v, -refined.value);
  return std::min(1.0, std::exp(best_v));
}

double ndd1_poisson_tail(const NDD1Params& q, double x) {
  validate(q);
  if (x < 0.0) return 1.0;
  const double lambda = static_cast<double>(q.n) / q.period_s;
  const double d = q.service_s;
  // log P ~ sup_t [-s*(x+t) + lambda t (e^{s* d} - 1)],
  // e^{s* d} = (x + t) / (lambda t d).
  auto objective = [lambda, d, x](double t) {
    const double ratio = (x + t) / (lambda * t * d);
    if (ratio <= 1.0) return 0.0;  // s* = 0: trivial bound
    const double s = std::log(ratio) / d;
    return -s * (x + t) + lambda * t * (ratio - 1.0);
  };
  const obs::ScopedSolverContext obs_ctx("queueing.ndd1");
  const auto r = obs::require_converged(
      math::maximize_scan([&objective](double t) { return objective(t); },
                          0.0, 0.01 * q.period_s, 1.25, 600, 1e-12),
      "ndd1_poisson_tail");
  return std::min(1.0, std::exp(r.value));
}

double ndd1_quantile(const NDD1Params& q, double epsilon,
                     NDD1Method method) {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("ndd1_quantile: epsilon in (0,1)");
  }
  std::function<double(double)> tail;
  switch (method) {
    case NDD1Method::kBenes:
      tail = [&q](double x) { return ndd1_benes_tail(q, x); };
      break;
    case NDD1Method::kChernoff:
      tail = [&q](double x) { return ndd1_chernoff_tail(q, x); };
      break;
    case NDD1Method::kPoisson:
      tail = [&q](double x) { return ndd1_poisson_tail(q, x); };
      break;
  }
  if (tail(0.0) <= epsilon) return 0.0;
  double hi = q.service_s;
  int guard = 0;
  while (tail(hi) > epsilon) {
    hi *= 2.0;
    if (++guard > 100) {
      throw std::runtime_error("ndd1_quantile: bracket failure");
    }
  }
  double lo = 0.0;
  for (int i = 0; i < 120 && hi - lo > 1e-12 * (1.0 + hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (tail(mid) > epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace fpsq::queueing
