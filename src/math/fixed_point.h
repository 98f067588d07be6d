// Complex fixed-point solver for the D/E_K/1 pole equations (paper eq. 26):
//     z = exp((z − 1)/rho + 2·pi·i·(k − 1)/K),   Re z < 1.
// Appendix C shows each of the K equations has a unique root in Re z < 1,
// reachable by iterating from z = 0. We iterate, then polish with Newton.
#pragma once

#include <complex>
#include <functional>

namespace fpsq::math {

using Complex = std::complex<double>;

/// Result of a complex fixed-point / Newton solve.
struct ComplexRootResult {
  Complex root{0.0, 0.0};
  double residual = 0.0;  ///< |F(root) − root| (fixed point) or |G(root)|
  int iterations = 0;
  bool converged = false;
};

/// Iterates z <- F(z) from z0 until |F(z) − z| < tol, then (optionally)
/// polishes with Newton on G(z) = F(z) − z using dF. Newton starts once
/// the residual is below 1e-6 or after 200 Picard steps, and runs one
/// phase of at most 60 steps: a phase that misses `tol` returns
/// converged == false. `iterations` counts Picard and Newton steps.
///
/// @param F    the fixed-point map
/// @param dF   derivative of F (pass nullptr-like empty function to skip
///             Newton polishing)
[[nodiscard]] ComplexRootResult solve_fixed_point(
    const std::function<Complex(Complex)>& F,
    const std::function<Complex(Complex)>& dF, Complex z0, double tol = 1e-15,
    int max_iter = 10000);

}  // namespace fpsq::math
