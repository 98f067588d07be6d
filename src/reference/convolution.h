// Numerically stable evaluation of the Section-3.3 combination.
//
// The paper's eq. (35) expands D_u(s) W(s) P(s) into partial fractions.
// That expansion is exact but ill-conditioned in fixed precision: at
// moderate-to-low load the D/E_K/1 poles alpha_j = beta (1 - zeta_j)
// cluster around the position-delay pole beta, and the expansion
// coefficients grow like |zeta|^{-(K-1)} with massive cancellation
// (observed: coefficients ~1e24 cancelling to O(1) for K = 20 at
// rho_d = 0.3). The cure implemented here: combine the *simple-pole*
// factors D_u(s) W(s) analytically — their cross-coefficients stay O(1) —
// and fold in the Erlang-mixture position delay by a direct convolution
// integral:
//
//   P(V + Y > x) = P(V > x) + atom_V * P(Y > x)
//                + int_0^x f_V(w) P(Y > x - w) dw,
//
// where every ingredient is evaluated from a cancellation-free form and
// the integral by adaptive Simpson to 1e-12.
// Production evaluates the same law through queueing::TailKernel, which
// convolves each pole exactly; this adaptive-quadrature integral is the
// independent reference oracle for `fpsq check` and the tests, as the
// quadrature of eq. (30) is for the position-delay MGF of eq. (34).
#pragma once

#include "queueing/erlang_mix.h"
#include "queueing/position_delay.h"

namespace fpsq::queueing {

/// P(V + Y > x) with V given by an Erlang-mix MGF (atom + mixture) and
/// Y by a (positive-weight) Erlang mixture; V and Y independent.
[[nodiscard]] double convolved_tail(const ErlangMixMgf& v,
                                    const ErlangMixture& y, double x);

/// Density of V + Y at x > 0 (Y has no atom, so this is
/// c0_V f_Y(x) + int_0^x f_V(w) f_Y(x - w) dw). Used as the analytic
/// derivative in the Newton quantile inversion.
[[nodiscard]] double convolved_density(const ErlangMixMgf& v,
                                       const ErlangMixture& y, double x);

/// epsilon-quantile of V + Y (safeguarded Newton on convolved_tail with
/// convolved_density as the derivative).
/// @throws err::SolverFailure (kNonConvergence) when the inversion
///         bracket or Newton budget is exhausted
[[nodiscard]] double convolved_quantile(const ErlangMixMgf& v,
                                        const ErlangMixture& y,
                                        double epsilon);

/// E[V + Y].
[[nodiscard]] double convolved_mean(const ErlangMixMgf& v,
                                    const ErlangMixture& y);

/// Direct numerical evaluation of eq. (30) — the MGF of the uniform
/// position delay as an integral — used by tests to validate eq. (34).
[[nodiscard]] double position_delay_uniform_mgf_numeric(int k, double beta,
                                                        double s);

}  // namespace fpsq::queueing
