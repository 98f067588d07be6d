// Chernoff-bound alternative for Section 3.3: instead of inverting the
// combined MGF exactly, bound the tail by
//     P(D > x) <= inf_{0 < s < s_max} e^{-s x} F(s)        (eq. 36)
// where F is the product MGF and s_max its dominant pole.
#pragma once

#include <functional>

namespace fpsq::queueing {

/// Chernoff bound on P(X > x) given any real MGF evaluator and the
/// abscissa of convergence s_max (the dominant pole). Taking the MGF as
/// a function lets callers evaluate a *product* of factor MGFs, which is
/// cancellation-free even when the expanded partial-fraction form is not.
[[nodiscard]] double chernoff_tail_fn(
    const std::function<double(double)>& mgf_value, double s_max, double x);

/// epsilon-quantile implied by the Chernoff bound (conservative: the true
/// quantile is below this).
[[nodiscard]] double chernoff_quantile_fn(
    const std::function<double(double)>& mgf_value, double s_max,
    double epsilon);

}  // namespace fpsq::queueing
