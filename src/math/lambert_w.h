// Principal branch W_0 of the Lambert W function, w e^w = z, for complex
// z. The D/E_K/1 root equation (paper eq. 26) z = e^{(z-1)/rho} omega
// has the closed form zeta = -rho W_0(-rho^{-1} e^{-1/rho} omega), so
// deterministic-tick burst-wait roots need one W_0 evaluation each
// (Corless et al., "On the Lambert W function", Adv. Comput. Math. 5,
// 1996).
#pragma once

#include "math/fixed_point.h"

namespace fpsq::math {

/// W_0(z) by Halley iteration on f(w) = w e^w - z.
///
/// Start: the branch-point series w = -1 + p - p^2/3 + 11 p^3/72 with
/// p = sqrt(2 (e z + 1)) near z = -1/e, else the Taylor start
/// z (1 - z + 3 z^2/2) for |z| <= 1 (every eq.-26 argument takes one of
/// these two), else the asymptotic log z - log log z.
///
/// Stop: once a Halley step is within the evaluation's rounding floor,
/// 8 u |w| (1 + 1/|1 + w|) — the 1/|1 + w| factor is W's own condition
/// number, which grows without bound at the branch point. Every
/// argument in the disk |z| <= 1/e stops within 5 steps; 16 steps is a
/// hard cap, and a solve that reaches it returns converged == false,
/// never a silently accepted value.
///
/// `residual` is the size of the last Halley step. Records
/// `<site>.lambert_w.{calls,iterations,failures}` (obs/solver_telemetry).
[[nodiscard]] ComplexRootResult lambert_w0(Complex z);

}  // namespace fpsq::math
