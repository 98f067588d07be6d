// Adaptive Simpson quadrature. Used for validating closed-form MGFs
// (e.g. the packet-position integral of eq. 30) against direct numerical
// integration, by the convolution oracle in reference/convolution.h, and
// for distribution sanity checks in tests.
#pragma once

#include <functional>

namespace fpsq::math {

/// Integrates f over [a, b] with adaptive Simpson to absolute tolerance
/// `tol`. `max_depth` bounds the recursion (interval halvings).
[[nodiscard]] double integrate(const std::function<double(double)>& f,
                               double a, double b, double tol = 1e-10,
                               int max_depth = 40);

}  // namespace fpsq::math
