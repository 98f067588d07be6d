// Special functions needed by the distribution library and the queueing
// solvers: log-gamma, regularized incomplete gamma, Erlang/Poisson tails.
//
// Implemented from scratch (series + continued fraction) so the library has
// no dependency beyond the standard library; accuracy is ~1e-13 relative
// over the parameter ranges exercised by the paper (shape <= a few hundred).
#pragma once

#include <cstdint>

namespace fpsq::math {

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7, n = 9).
[[nodiscard]] double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = γ(a, x) / Γ(a),
/// for a > 0, x >= 0. P(a, 0) = 0, P(a, ∞) = 1.
[[nodiscard]] double gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 − P(a, x), computed
/// directly (Lentz continued fraction for x >= a + 1) so small tails keep
/// full relative precision.
[[nodiscard]] double gamma_q(double a, double x);

/// P(Erlang(k, rate) > x) = Q(k, rate*x) = e^{−rate·x} Σ_{i<k} (rate·x)^i/i!.
/// Valid for k >= 1, rate > 0, x >= 0.
[[nodiscard]] double erlang_ccdf(int k, double rate, double x);

/// P(Erlang(k, rate) <= x).
[[nodiscard]] double erlang_cdf(int k, double rate, double x);

/// Erlang(k, rate) density at x >= 0.
[[nodiscard]] double erlang_pdf(int k, double rate, double x);

/// P(Poisson(mu) = n).
[[nodiscard]] double poisson_pmf(std::int64_t n, double mu);

/// ln C(n, k) via log-gamma.
[[nodiscard]] double log_binomial(std::int64_t n, std::int64_t k);

/// Binomial tail P(Bin(n, p) >= k), computed by summing pmf terms in log
/// space from the largest term outward. Exact-ish for n up to ~1e6.
[[nodiscard]] double binomial_sf(std::int64_t n, double p, std::int64_t k);

}  // namespace fpsq::math
