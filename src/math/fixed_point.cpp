#include "math/fixed_point.h"

#include <cmath>

#include "obs/solver_telemetry.h"

namespace fpsq::math {

namespace {

ComplexRootResult solve_fixed_point_impl(
    const std::function<Complex(Complex)>& F,
    const std::function<Complex(Complex)>& dF, Complex z0, double tol,
    int max_iter) {
  ComplexRootResult r;
  Complex z = z0;
  // Plain Picard iteration: the paper's map is a contraction on the domain
  // of interest, so this converges linearly; we cut over to Newton once the
  // residual is small — or once Picard has had a fair number of steps,
  // which rescues the near-saturation regime (contraction factor ~ rho
  // close to 1) where Picard alone would need millions of iterations.
  // There is one Newton phase: if it misses `tol` (an unreachable
  // tolerance, a degenerate derivative), the solve ends unconverged
  // instead of re-entering Newton on every remaining outer iteration.
  const double newton_cutover = 1e-6;
  constexpr int kPicardBudget = 200;
  constexpr int kNewtonBudget = 60;
  for (int i = 0; i < max_iter; ++i) {
    const Complex fz = F(z);
    const double res = std::abs(fz - z);
    r.iterations = i + 1;
    if (res < tol) {
      r.root = fz;
      r.residual = std::abs(F(fz) - fz);
      r.converged = true;
      return r;
    }
    if (dF && (res < newton_cutover || i >= kPicardBudget)) {
      // Newton on G(z) = F(z) − z:  z <- z − (F(z) − z)/(F'(z) − 1);
      // each step counts as an iteration.
      for (int j = 0; j < kNewtonBudget; ++j) {
        const Complex g = F(z) - z;
        if (std::abs(g) < tol) {
          r.root = z;
          r.residual = std::abs(g);
          r.converged = true;
          return r;
        }
        const Complex dg = dF(z) - Complex{1.0, 0.0};
        if (std::abs(dg) == 0.0) break;  // degenerate derivative
        z -= g / dg;
        ++r.iterations;
      }
      break;
    }
    z = fz;
  }
  r.root = z;
  r.residual = std::abs(F(z) - z);
  r.converged = r.residual < tol;
  return r;
}

}  // namespace

ComplexRootResult solve_fixed_point(const std::function<Complex(Complex)>& F,
                                    const std::function<Complex(Complex)>& dF,
                                    Complex z0, double tol, int max_iter) {
  const ComplexRootResult r =
      solve_fixed_point_impl(F, dF, z0, tol, max_iter);
  obs::record_solver_call("fixed_point", r.iterations, r.converged);
  obs::record_solver_residual("fixed_point", r.residual);
  return r;
}

}  // namespace fpsq::math
