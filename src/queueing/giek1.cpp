#include "queueing/giek1.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "err/fault_injection.h"
#include "math/fixed_point.h"
#include "math/lambert_w.h"
#include "obs/metrics.h"
#include "obs/solver_telemetry.h"
#include "obs/trace.h"

namespace fpsq::queueing {

namespace {

constexpr const char* kDeterministicName = "Det";

/// The one test for "deterministic ticks": it picks both the telemetry
/// names and the closed-form root path.
bool is_deterministic(const ArrivalTransform& arrivals) noexcept {
  return arrivals.name == kDeterministicName;
}

/// z^n by repeated squaring (n >= 0).
Complex int_pow(Complex z, int n) {
  Complex r{1.0, 0.0};
  for (; n > 0; n >>= 1) {
    if (n & 1) r *= z;
    z *= z;
  }
  return r;
}

/// Deterministic ticks (the paper's eq. 26, z = omega_j e^{(z-1)/rho}) in
/// closed form: zeta_j = -rho W_0(x_j), x_j = -rho^{-1} e^{-1/rho}
/// omega_j. |x_j| = e^{-1/rho}/rho < 1/e for every rho < 1, so each
/// root is a principal-branch value: no seed and no search budget.
/// Roots past K/2 are the exact conjugates of roots K - j.
std::optional<err::SolverError> lambert_roots(int k, double rho,
                                              std::vector<Complex>& zetas) {
  const double scale = std::exp(-1.0 / rho) / rho;
  for (int j = 0; j <= k / 2; ++j) {
    const double phase =
        2.0 * M_PI * static_cast<double>(j) / static_cast<double>(k);
    const auto w = math::lambert_w0(-scale * std::exp(Complex{0.0, phase}));
    if (!w.converged) {
      return err::SolverError{err::SolverErrorCode::kNonConvergence,
                              "GiEk1Solver: Lambert W did not converge"};
    }
    zetas[static_cast<std::size_t>(j)] = -rho * w.root;
  }
  // x_0 is real; rounding can put it a few ulps past -1/e (rho within
  // ~1e-8 of 1), where W_0 turns complex. The root itself is real.
  zetas[0] = Complex{zetas[0].real(), 0.0};
  for (int j = k / 2 + 1; j < k; ++j) {
    zetas[static_cast<std::size_t>(j)] =
        std::conj(zetas[static_cast<std::size_t>(k - j)]);
  }
  return std::nullopt;
}

/// Any other renewal law: z = omega_j [A(beta (1 - z))]^{1/K} by Picard
/// iteration with a Newton polish, polished to |F(z) - z| < 1e-15.
/// Coarser roots do not survive the low-load tail: there the weights
/// a_j ~ zeta_j^K are tiny and nearly cancel, so P(W > x) amplifies a
/// root error by up to ~1e8 (K = 16, rho 0.36, epsilon 2e-7: a 1e-12
/// stop moves the burst quantile by 1e-5 relative).
std::optional<err::SolverError> searched_roots(
    int k, double beta, const ArrivalTransform& arrivals,
    std::vector<Complex>& zetas) {
  const double inv_k = 1.0 / static_cast<double>(k);
  const Complex unit_rot =
      std::exp(Complex{0.0, 2.0 * M_PI / static_cast<double>(k)});
  for (int j = 0; j < k; ++j) {
    const double phase =
        2.0 * M_PI * static_cast<double>(j) / static_cast<double>(k);
    const Complex rot = std::exp(Complex{0.0, phase});
    auto map = [&arrivals, beta, rot, inv_k](Complex z) {
      const Complex log_a =
          arrivals.log_laplace(beta * (Complex{1.0, 0.0} - z));
      return rot * std::exp(log_a * inv_k);
    };
    // Central-difference derivative for the Newton cutover.
    auto dmap = [&map](Complex z) {
      const double h = 1e-7;
      return (map(z + Complex{h, 0.0}) - map(z - Complex{h, 0.0})) /
             (2.0 * h);
    };
    // Seed policy (deterministic in the parameters): our own root j-1
    // rotated one K-th of a turn (the roots lie approximately on a
    // circle), else the cold start z = 0.
    Complex z0{0.0, 0.0};
    if (j > 0) z0 = zetas[static_cast<std::size_t>(j - 1)] * unit_rot;
    if (!(std::abs(z0) < 1.0)) z0 = Complex{0.0, 0.0};
    const auto res = math::solve_fixed_point(map, dmap, z0, 1e-15, 20000);
    if (!res.converged) {
      return err::SolverError{
          err::SolverErrorCode::kNonConvergence,
          "GiEk1Solver: zeta iteration did not converge"};
    }
    zetas[static_cast<std::size_t>(j)] = res.root;
  }
  return std::nullopt;
}

}  // namespace

ArrivalTransform deterministic_arrivals(double period_s) {
  if (!(period_s > 0.0)) {
    throw std::invalid_argument("deterministic_arrivals: period > 0");
  }
  // log A(u) = -u T: entire, trivially single-valued.
  return {[period_s](Complex u) { return -u * period_s; }, period_s,
          kDeterministicName, {period_s}};
}

ArrivalTransform gamma_arrivals(double shape, double rate) {
  if (!(shape > 0.0) || !(rate > 0.0)) {
    throw std::invalid_argument("gamma_arrivals: shape, rate > 0");
  }
  // log A(u) = -shape log(1 + x) with x = u/rate. The equivalent
  // shape (log rate - log(rate + u)) cancels in proportion to
  // shape |log rate| and leaves a ~1e-12 floor under |F(z) - z|. The
  // iteration keeps Re x > 0 (u = beta (1 - z), |z| < 1), where
  //   log(1 + x) = log1p(2 Re x + |x|^2)/2 + i atan2(Im x, 1 + Re x)
  // is the principal branch, analytic and single-valued.
  return {[shape, rate](Complex u) {
            const Complex x = u / rate;
            const Complex log1p_x{
                0.5 * std::log1p(2.0 * x.real() + std::norm(x)),
                std::atan2(x.imag(), 1.0 + x.real())};
            return -shape * log1p_x;
          },
          shape / rate, "Gamma", {shape, rate}};
}

ArrivalTransform gamma_arrivals_mean_cov(double mean_s, double cov) {
  if (!(mean_s > 0.0) || !(cov > 0.0)) {
    throw std::invalid_argument("gamma_arrivals_mean_cov: mean, cov > 0");
  }
  const double shape = 1.0 / (cov * cov);
  return gamma_arrivals(shape, shape / mean_s);
}

const SolverNames& solver_names(const ArrivalTransform& arrivals) noexcept {
  const auto make = [](const char* site, const char* span, const char* hits,
                       const char* misses) {
    auto& reg = obs::MetricsRegistry::global();
    return SolverNames{site, span, hits, misses, reg.counter(hits),
                       reg.counter(misses)};
  };
  static const SolverNames kDeterministic =
      make("queueing.dek1", "dek1.pole_search", "queueing.cache.dek1.hits",
           "queueing.cache.dek1.misses");
  static const SolverNames kRenewal =
      make("queueing.giek1", "giek1.pole_search",
           "queueing.cache.giek1.hits", "queueing.cache.giek1.misses");
  return is_deterministic(arrivals) ? kDeterministic : kRenewal;
}

err::Result<GiEk1Solver> GiEk1Solver::create(int k, double mean_service_s,
                                             ArrivalTransform arrivals) {
  GiEk1Solver solver;
  if (auto e = solver.init(k, mean_service_s, std::move(arrivals))) {
    err::record_failure(*e);
    return *std::move(e);
  }
  return solver;
}

GiEk1Solver::GiEk1Solver(int k, double mean_service_s,
                         ArrivalTransform arrivals) {
  if (auto e = init(k, mean_service_s, std::move(arrivals))) {
    err::record_failure(*e);
    err::throw_solver_error(*e);
  }
}

std::optional<err::SolverError> GiEk1Solver::init(
    int k, double mean_service_s, ArrivalTransform arrivals) {
  k_ = k;
  service_s_ = mean_service_s;
  arrivals_ = std::move(arrivals);
  const SolverNames& names = solver_names(arrivals_);
  const obs::ScopedSolverContext obs_ctx(names.site);
  FPSQ_SPAN(names.span);
  if (k < 1) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "GiEk1Solver: k >= 1 required"};
  }
  if (!(mean_service_s > 0.0) || !(arrivals_.mean > 0.0) ||
      !arrivals_.log_laplace) {
    return err::SolverError{err::SolverErrorCode::kBadParameters,
                            "GiEk1Solver: bad service/arrival spec"};
  }
  rho_ = service_s_ / arrivals_.mean;
  if (!(rho_ < 1.0)) {
    return err::SolverError{err::SolverErrorCode::kUnstable,
                            "GiEk1Solver: unstable (rho >= 1)"};
  }
  if (auto fault = err::fault_check(names.site, rho_)) {
    return fault;
  }
  beta_ = static_cast<double>(k_) / service_s_;

  // Roots: z = omega_k [A(beta (1 - z))]^{1/K}, |z| < 1. Deterministic
  // roots come in exact conjugate pairs (j, K - j), so their weights
  // are computed for j <= K/2 only.
  const auto n = static_cast<std::size_t>(k_);
  zetas_.assign(n, Complex{0.0, 0.0});
  const bool mirrored = is_deterministic(arrivals_);
  if (auto e = mirrored ? lambert_roots(k_, rho_, zetas_)
                        : searched_roots(k_, beta_, arrivals_, zetas_)) {
    return e;
  }
  poles_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (!(std::abs(zetas_[j]) < 1.0 + 1e-12)) {
      return err::SolverError{err::SolverErrorCode::kNonConvergence,
                              "GiEk1Solver: root outside the unit disk"};
    }
    poles_[j] = beta_ * (Complex{1.0, 0.0} - zetas_[j]);
  }

  // Appendix-D weights (service-side boundary conditions, so the same
  // for every arrival law), with P = prod_l (zeta_l - 1):
  //   a_j = zeta_j^K prod_{l != j} (zeta_l - 1)/(zeta_l - zeta_j)
  //       = zeta_j^K P / ((zeta_j - 1) prod_{l != j} (zeta_l - zeta_j)),
  // one division per root. Where |zeta_j|^K underflows (K >~ 40 at low
  // load) the numerator is denormal or zero, and dividing it back up
  // would leave garbage of size |zeta_j|/K; the weights then sum to
  // P(W > 0) ~ |zeta|^K, far below rounding, so they are set to zero.
  Complex prod_minus_one{1.0, 0.0};
  for (const Complex& z : zetas_) prod_minus_one *= z - 1.0;
  weights_.resize(n);
  const std::size_t computed = mirrored ? n / 2 + 1 : n;
  for (std::size_t j = 0; j < computed; ++j) {
    const Complex zj = zetas_[j];
    Complex den = zj - 1.0;
    for (std::size_t l = 0; l < n; ++l) {
      if (l != j) den *= zetas_[l] - zj;
    }
    const Complex num = int_pow(zj, k_) * prod_minus_one;
    weights_[j] = std::abs(num) < std::numeric_limits<double>::min()
                      ? Complex{0.0, 0.0}
                      : num / den;
  }
  for (std::size_t j = computed; j < n; ++j) {
    weights_[j] = std::conj(weights_[n - j]);
  }

  // Degenerate regime: all poles collapse onto beta when |zeta| drops
  // below numerical resolution; then P(W > 0) <= sum |a_j| ~ |zeta| <<
  // 1e-7 and W is a point mass at zero. The roots come out in rotation
  // order around the origin, so the closest pole pairs are rotation
  // neighbours (j, j + 1 mod K); the collapse onto beta is |zeta_j|.
  double min_rel = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    min_rel = std::min(min_rel,
                       std::abs(poles_[i] - Complex{beta_, 0.0}) / beta_);
    if (next != i) {
      min_rel = std::min(
          min_rel, std::abs(poles_[i] - poles_[next]) /
                       std::max(std::abs(poles_[i]), std::abs(poles_[next])));
    }
  }
  obs::record_pole_diagnostics(names.site, min_rel);
  if (min_rel <= 10.0 * ErlangMixMgf::kPoleClash) {
    degenerate_ = true;
    mgf_ = ErlangMixMgf{};  // point mass at zero; weights remain inspectable
    return std::nullopt;
  }

  // Assemble the MGF: constant + simple poles, separated by the test
  // above. The imaginary parts of conjugate-pair weights cancel exactly
  // in theory; the atom keeps only the real part of their sum.
  Complex wsum{0.0, 0.0};
  std::vector<ErlangMixMgf::PoleTerm> terms;
  terms.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    wsum += weights_[j];
    terms.push_back({poles_[j], weights_[j]});
  }
  const double atom = 1.0 - wsum.real();
  if (!(atom > -1e-9 && atom < 1.0 + 1e-9)) {
    return err::SolverError{err::SolverErrorCode::kIllConditioned,
                            "GiEk1Solver: atom out of range"};
  }
  mgf_ = ErlangMixMgf{atom, std::move(terms), ErlangMixMgf::SeparatedPoles{}};
  return std::nullopt;
}

}  // namespace fpsq::queueing
