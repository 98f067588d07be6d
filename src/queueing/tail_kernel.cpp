#include "queueing/tail_kernel.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>
#include <utility>

#include "math/kahan.h"
#include "math/special.h"
#include "obs/metrics.h"
#include "queueing/inversion.h"

namespace fpsq::queueing {

namespace {

// Re(theta x) beyond which e^{-theta x} has underflowed to exactly 0.
constexpr double kExpUnderflow = 745.0;

// A pole counts as real when its imaginary part is at rounding level
// relative to the pole magnitude (conjugate pairs produced by the root
// finder carry tiny imaginary dust on nominally real roots).
constexpr double kRealPoleTol = 1e-12;

// Largest rounding amplification |zeta|^{-J} a pole's closed form may
// carry; past it the pole takes the series form. 1e6 let 8e-9 tail
// errors through on the check corpus.
constexpr double kClosedFormGain = 1e3;

// A series pole's geometric tail zeta^{l-J} is cut once it falls below
// this (relative to its coefficient).
constexpr double kSeriesCut = 1e-17;

/// sum_{l<n} c[l] P(Poisson(lambda) = l). The weights start at the mode
/// in log space (so lambda far past the e^{-lambda} underflow still
/// resolves) and recur outward until they underflow.
double poisson_sum(const double* c, std::uint32_t n, double lambda) {
  const double last = n - 1;
  const auto mode =
      static_cast<std::uint32_t>(lambda < last ? std::floor(lambda) : last);
  const double p_mode =
      mode == 0 ? std::exp(-lambda) : math::poisson_pmf(mode, lambda);
  if (!(p_mode > 0.0)) return 0.0;
  double acc = c[mode] * p_mode;
  double p = p_mode;
  for (std::uint32_t l = mode + 1; l < n && p > 0.0; ++l) {
    p *= lambda / l;
    acc += c[l] * p;
  }
  p = p_mode;
  for (std::uint32_t l = mode; l > 0 && p > 0.0; --l) {
    p *= l / lambda;
    acc += c[l - 1] * p;
  }
  return acc;
}

}  // namespace

TailKernel::TailKernel(const ErlangMixMgf& v) {
  compile(v.constant_term(), v.terms());
}

TailKernel::TailKernel(const ErlangMixture& y) {
  // One real group at beta: P(Y > x) = sum_l s_l p_l(beta x) with suffix
  // sums s_l = sum_{j>l} w_j, and density sum_l beta w_l p_l(beta x).
  const double beta = y.beta();
  const std::vector<double>& w = y.weights();
  real_decay_.push_back(beta);
  real_off_.push_back(0);
  real_len_.push_back(static_cast<std::uint32_t>(w.size()));
  real_tail_.resize(w.size());
  double run = 0.0;
  for (std::size_t l = w.size(); l-- > 0;) {
    run += w[l];
    real_tail_[l] = run;
  }
  for (const double wl : w) real_dens_.push_back(beta * wl);
  atom_ = 0.0;
  mean_ = y.mean();
  bracket_scale_ = 1.0 / beta;
}

TailKernel::TailKernel(const ErlangMixMgf& v, const ErlangMixture& y) {
  // A simple pole theta = beta (1 - zeta) of V with coefficient c adds
  //   c P(E_theta + Y > x) = c P(Y > x) + c sum_j w_j D_j(x),
  //   D_j = zeta^{-j} e^{-theta x} - sum_{l<j} p_l zeta^{l-j}  (closed)
  //       = sum_{l>=j} p_l zeta^{l-j}                         (series)
  // with p_l = P(Poisson(beta x) = l) (docs/THEORY.md §1.1). Closed
  // poles keep one exponential term; every p_l term, together with
  // V(0) P(Y > x), collects into one real sequence h at beta.
  const double beta = y.beta();
  const std::vector<double>& w = y.weights();
  const std::size_t big_j = w.size();
  std::vector<double> h(big_j, 0.0);
  std::vector<ErlangMixMgf::PoleTerm> closed;
  std::vector<std::pair<Complex, Complex>> series;  // (zeta, c)
  double max_series_zeta = 0.0;
  double v_total = v.constant_term();  // V(0)
  double v_mean = 0.0;
  for (const auto& t : v.terms()) {
    const Complex c = t.coeff;
    v_total += c.real();
    v_mean += (c / t.theta).real();
    const Complex zeta = 1.0 - t.theta / beta;
    const double mag = std::abs(zeta);
    if (std::pow(mag, static_cast<double>(big_j)) * kClosedFormGain < 1.0) {
      series.emplace_back(zeta, c);
      max_series_zeta = std::max(max_series_zeta, mag);
      continue;
    }
    // t_l = sum_{j>l} w_j zeta^{l-j}, backwards from t_J = 0.
    Complex t_l{0.0, 0.0};
    for (std::size_t l = big_j; l-- > 0;) {
      t_l = (w[l] + t_l) / zeta;
      h[l] -= (c * t_l).real();
    }
    closed.push_back({t.theta, c * t_l});
  }
  if (!series.empty()) {
    // g_l = sum_{j<=min(l,J)} w_j zeta^{l-j} decays as zeta^{l-J} past J.
    const double extra =
        std::ceil(std::log(kSeriesCut) / std::log(max_series_zeta));
    h.resize(big_j + 1 + static_cast<std::size_t>(extra), 0.0);
    for (const auto& [zeta, c] : series) {
      Complex g{0.0, 0.0};
      for (std::size_t l = 1; l < h.size(); ++l) {
        g = zeta * g + (l <= big_j ? w[l - 1] : 0.0);
        h[l] += (c * g).real();
      }
    }
  }
  double y_tail = 0.0;  // sum_{j>l} w_j
  for (std::size_t l = big_j; l-- > 0;) {
    y_tail += w[l];
    h[l] += v_total * y_tail;
  }

  compile(0.0, closed);
  real_decay_.push_back(beta);
  real_off_.push_back(static_cast<std::uint32_t>(real_tail_.size()));
  real_len_.push_back(static_cast<std::uint32_t>(h.size()));
  for (std::size_t l = 0; l < h.size(); ++l) {
    const double next = l + 1 < h.size() ? h[l + 1] : 0.0;
    real_tail_.push_back(h[l]);
    real_dens_.push_back(beta * (h[l] - next));
  }
  atom_ = 0.0;  // Y > 0 a.s., so V + Y has no mass at zero
  mean_ = v_mean + y.mean();
  bracket_scale_ = mean_ + 1.0 / beta;
  closed_form_ = series.empty();
  FPSQ_OBS_COUNT("queueing.kernel.closed_form_hits");
  if (!closed_form_) FPSQ_OBS_COUNT("queueing.kernel.series_kernels");
}

void TailKernel::compile(double constant,
                         const std::vector<ErlangMixMgf::PoleTerm>& terms) {
  atom_ = constant;
  mean_ = 0.0;

  double min_decay = std::numeric_limits<double>::infinity();
  std::size_t unpaired_negative = 0;

  for (const auto& t : terms) {
    const double a = t.theta.real();
    const double b = t.theta.imag();
    min_decay = std::min(min_decay, a);
    mean_ += (t.coeff / t.theta).real();  // E[Exp(theta)] = 1 / theta

    const bool is_real = std::abs(b) <= kRealPoleTol * std::abs(t.theta);
    if (!is_real && b < 0.0) {
      // Conjugate partner of an Im > 0 pole: folded into that group.
      ++unpaired_negative;
      continue;
    }

    // Tail c e^{-theta x}, density theta c e^{-theta x}.
    const Complex d = t.theta * t.coeff;
    if (is_real) {
      real_decay_.push_back(a);
      real_off_.push_back(static_cast<std::uint32_t>(real_tail_.size()));
      real_len_.push_back(1);
      real_tail_.push_back(t.coeff.real());
      real_dens_.push_back(d.real());
    } else {
      // Pair contribution (theta and conjugate, coefficients conjugate):
      //   2 Re(c e^{-theta x}) =
      //   e^{-a x} [cos(b x) 2 Re c + sin(b x) 2 Im c].
      cplx_decay_.push_back(a);
      cplx_freq_.push_back(b);
      cplx_tail_cos_.push_back(2.0 * t.coeff.real());
      cplx_tail_sin_.push_back(2.0 * t.coeff.imag());
      cplx_dens_cos_.push_back(2.0 * d.real());
      cplx_dens_sin_.push_back(2.0 * d.imag());
    }
  }

  if (unpaired_negative != cplx_decay_.size()) {
    throw std::invalid_argument(
        "TailKernel: complex poles must come in conjugate pairs");
  }
  bracket_scale_ =
      std::isfinite(min_decay) && min_decay > 0.0 ? 1.0 / min_decay : 1.0;
}

double TailKernel::evaluate(double x, const std::vector<double>& real,
                            const std::vector<double>& cplx_cos,
                            const std::vector<double>& cplx_sin) const {
  math::KahanSum acc;
  const std::size_t nr = real_decay_.size();
  for (std::size_t g = 0; g < nr; ++g) {
    acc.add(poisson_sum(real.data() + real_off_[g], real_len_[g],
                        real_decay_[g] * x));
  }
  const std::size_t nc = cplx_decay_.size();
  for (std::size_t g = 0; g < nc; ++g) {
    const double ax = cplx_decay_[g] * x;
    if (ax > kExpUnderflow) continue;
    const double bx = cplx_freq_[g] * x;
    acc.add(std::exp(-ax) *
            (std::cos(bx) * cplx_cos[g] + std::sin(bx) * cplx_sin[g]));
  }
  return acc.value();
}

double TailKernel::tail(double x) const {
  if (x <= 0.0) return 1.0 - atom_;
  FPSQ_OBS_COUNT("queueing.kernel.tail_evals");
  return evaluate(x, real_tail_, cplx_tail_cos_, cplx_tail_sin_);
}

double TailKernel::density(double x) const {
  if (x <= 0.0) return 0.0;
  FPSQ_OBS_COUNT("queueing.kernel.density_evals");
  return evaluate(x, real_dens_, cplx_dens_cos_, cplx_dens_sin_);
}

double TailKernel::quantile(double epsilon) const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("TailKernel::quantile: epsilon in (0,1)");
  }
  // Atom guard (NaN-safe, mirroring invert_tail_newton): epsilon at or
  // above P(X > 0) — e.g. any epsilon against a rho -> 0 burst wait
  // whose atom is within rounding of 1 — answers 0 exactly.
  if (!(tail(0.0) > epsilon)) return 0.0;
  return invert_tail_newton([this](double x) { return tail(x); },
                            [this](double x) { return density(x); },
                            epsilon, bracket_scale_, "queueing.kernel");
}

}  // namespace fpsq::queueing
