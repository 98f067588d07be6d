// Shared tail-inversion driver: every epsilon-quantile in the queueing
// layer is the root of tail(x) = epsilon for a smooth, strictly
// decreasing tail with an analytic density. This helper replaces the
// seed's 100-200-step bisections with
//   1. one exponential-extrapolation bracket pass (the tail is
//      asymptotically R e^{-delta x}, so a log-space secant lands within
//      a few percent of the root), then
//   2. math::newton_safe with the density as the derivative,
// cutting the per-quantile tail evaluations from ~120-200 to ~10-15.
//
// Failures (bracket expansion exhausted, Newton not converged) are
// routed through the fpsq::err structured taxonomy as kNonConvergence so
// the sweep drivers degrade an inversion failure exactly as they do a
// solver failure.
#pragma once

#include <functional>

namespace fpsq::queueing {

/// Smallest x >= 0 with tail(x) <= epsilon.
///
/// @param tail     strictly decreasing on [0, inf), tail(x) -> 0
/// @param density  -d/dx tail (the analytic density of the law)
/// @param epsilon  target tail probability, must be in (0, 1)
/// @param scale    initial upper-bracket guess (> 0), e.g. the mean or
///                 the reciprocal dominant decay rate
/// @param site     call-site label for telemetry and error details,
///                 e.g. "queueing.kernel" or "queueing.erlang_mix"
/// @throws err::SolverFailure (kNonConvergence) when the bracket
///         expansion or the Newton polish exhausts its budget
[[nodiscard]] double invert_tail_newton(
    const std::function<double(double)>& tail,
    const std::function<double(double)>& density, double epsilon,
    double scale, const char* site);

}  // namespace fpsq::queueing
