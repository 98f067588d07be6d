// Complex polynomial utilities and simultaneous root finding
// (Durand-Kerner / Weierstrass iteration). Used to localize the full pole
// set of rational waiting-time transforms (e.g. M/G/1 with Erlang-mixture
// service); callers then polish each root against a numerically stable
// factored form of the defining equation.
#pragma once

#include <complex>
#include <vector>

namespace fpsq::math {

/// Polynomial with coefficients c[0] + c[1] z + ... + c[n] z^n.
using Poly = std::vector<std::complex<double>>;

/// Product of two polynomials.
[[nodiscard]] Poly poly_mul(const Poly& a, const Poly& b);

/// Sum (coefficient-wise, zero-padded).
[[nodiscard]] Poly poly_add(const Poly& a, const Poly& b);

/// a scaled by a constant.
[[nodiscard]] Poly poly_scale(const Poly& a, std::complex<double> k);

/// Evaluation by Horner.
[[nodiscard]] std::complex<double> poly_eval(const Poly& p,
                                             std::complex<double> z);

/// Derivative.
[[nodiscard]] Poly poly_derivative(const Poly& p);

/// Drops (numerically) zero leading coefficients.
[[nodiscard]] Poly poly_trim(Poly p, double tol = 0.0);

/// All complex roots by Durand-Kerner iteration. Stops when every root
/// moved less than `tol` in one sweep, or when every residual |p(z_k)|
/// is at the rounding floor of its Horner evaluation (the roots are then
/// as accurate as the coefficients allow).
///
/// @param p        polynomial of degree >= 1 (leading coefficient != 0)
/// @param tol      per-root movement tolerance
/// @param max_iter iteration cap
/// @throws std::invalid_argument for degree < 1; err::SolverFailure
///         (kNonConvergence, a std::runtime_error) when neither test
///         passes within max_iter sweeps
[[nodiscard]] std::vector<std::complex<double>> durand_kerner(
    const Poly& p, double tol = 1e-13, int max_iter = 2000);

}  // namespace fpsq::math
