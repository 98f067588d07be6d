#include "math/special.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace fpsq::math {

namespace {

// Lanczos coefficients, g = 7, n = 9 (Godfrey).
constexpr double kLanczosG = 7.0;
constexpr double kLanczos[9] = {
    0.99999999999980993,  676.5203681218851,     -1259.1392167224028,
    771.32342877765313,   -176.61502916214059,   12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};

constexpr int kMaxSeriesIter = 1000;
constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;

// Lower incomplete gamma by series:  P(a,x) = x^a e^-x / Γ(a) Σ x^n / (a)_n+1
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxSeriesIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * kEps) {
      break;
    }
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

// Upper incomplete gamma by modified Lentz continued fraction.
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxSeriesIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) {
      break;
    }
  }
  return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

}  // namespace

double log_gamma(double x) {
  if (!(x > 0.0)) {
    throw std::domain_error("log_gamma: requires x > 0");
  }
  if (x < 0.5) {
    // Reflection: Γ(x) Γ(1−x) = π / sin(πx)
    return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
  }
  const double z = x - 1.0;
  double a = kLanczos[0];
  for (int i = 1; i < 9; ++i) {
    a += kLanczos[i] / (z + static_cast<double>(i));
  }
  const double t = z + kLanczosG + 0.5;
  return 0.5 * std::log(2.0 * M_PI) + (z + 0.5) * std::log(t) - t +
         std::log(a);
}

double gamma_p(double a, double x) {
  if (!(a > 0.0) || x < 0.0) {
    throw std::domain_error("gamma_p: requires a > 0, x >= 0");
  }
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) {
    return gamma_p_series(a, x);
  }
  return 1.0 - gamma_q_cf(a, x);
}

double gamma_q(double a, double x) {
  if (!(a > 0.0) || x < 0.0) {
    throw std::domain_error("gamma_q: requires a > 0, x >= 0");
  }
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) {
    return 1.0 - gamma_p_series(a, x);
  }
  return gamma_q_cf(a, x);
}

double erlang_ccdf(int k, double rate, double x) {
  if (k < 1 || !(rate > 0.0)) {
    throw std::domain_error("erlang_ccdf: requires k >= 1, rate > 0");
  }
  if (x <= 0.0) return 1.0;
  return gamma_q(static_cast<double>(k), rate * x);
}

double erlang_cdf(int k, double rate, double x) {
  if (k < 1 || !(rate > 0.0)) {
    throw std::domain_error("erlang_cdf: requires k >= 1, rate > 0");
  }
  if (x <= 0.0) return 0.0;
  return gamma_p(static_cast<double>(k), rate * x);
}

double erlang_pdf(int k, double rate, double x) {
  if (k < 1 || !(rate > 0.0)) {
    throw std::domain_error("erlang_pdf: requires k >= 1, rate > 0");
  }
  if (x < 0.0) return 0.0;
  if (x == 0.0) return k == 1 ? rate : 0.0;
  // rate^k x^(k-1) e^(-rate x) / (k-1)!
  const double lg = static_cast<double>(k) * std::log(rate) +
                    (static_cast<double>(k) - 1.0) * std::log(x) - rate * x -
                    log_gamma(static_cast<double>(k));
  return std::exp(lg);
}

double poisson_pmf(std::int64_t n, double mu) {
  if (mu < 0.0 || n < 0) return 0.0;
  if (mu == 0.0) return n == 0 ? 1.0 : 0.0;
  return std::exp(static_cast<double>(n) * std::log(mu) - mu -
                  log_gamma(static_cast<double>(n) + 1.0));
}

double log_binomial(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) {
    throw std::domain_error("log_binomial: requires 0 <= k <= n");
  }
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial_sf(std::int64_t n, double p, std::int64_t k) {
  if (p < 0.0 || p > 1.0) {
    throw std::domain_error("binomial_sf: requires p in [0, 1]");
  }
  if (k <= 0) return 1.0;
  if (k > n) return 0.0;
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // Sum pmf from k to n; terms decay geometrically past the mode, so a
  // forward sum from k is fine when k > mode; otherwise use 1 − cdf.
  const double mode = p * static_cast<double>(n);
  const double q = 1.0 - p;
  auto log_pmf = [&](std::int64_t i) {
    return log_binomial(n, i) + static_cast<double>(i) * std::log(p) +
           static_cast<double>(n - i) * std::log(q);
  };
  if (static_cast<double>(k) > mode) {
    double sum = 0.0;
    const double lp0 = log_pmf(k);
    double term = 1.0;
    double ratio;
    sum = term;
    for (std::int64_t i = k; i < n; ++i) {
      // pmf(i+1)/pmf(i) = (n-i)/(i+1) * p/q
      ratio = static_cast<double>(n - i) / static_cast<double>(i + 1) * p / q;
      term *= ratio;
      sum += term;
      if (term < sum * kEps) break;
    }
    return std::exp(lp0) * sum;
  }
  // Left side: compute the complement by summing the lower tail.
  double sum = 0.0;
  const double lp0 = log_pmf(k - 1);
  double term = 1.0;
  sum = term;
  for (std::int64_t i = k - 1; i > 0; --i) {
    // pmf(i-1)/pmf(i) = i/(n-i+1) * q/p
    const double ratio =
        static_cast<double>(i) / static_cast<double>(n - i + 1) * q / p;
    term *= ratio;
    sum += term;
    if (term < sum * kEps) break;
  }
  return 1.0 - std::exp(lp0) * sum;
}

}  // namespace fpsq::math
