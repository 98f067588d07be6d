// Section-3.3 approximations of the RTT quantile, for the A1 ablation
// (bench_ablation_inversion): the dominant pole of eq. (35) alone and the
// Chernoff bound of eq. (36), each computed from a solved core::RttModel.
// Production inverts the exact combination (RttModel::rtt_quantile_ms).
#pragma once

#include "core/rtt_model.h"

namespace fpsq::core {

/// Section-3.3 approximation of stochastic_quantile_ms() for the A1
/// ablation: the epsilon-quantile [ms] from the dominant pole of eq. (35)
/// alone; 0 when its residue is below epsilon, where the method
/// degenerates.
[[nodiscard]] double dominant_pole_quantile_ms(const RttModel& model,
                                               double epsilon);

/// Section-3.3 approximation of stochastic_quantile_ms() for the A1
/// ablation: the epsilon-quantile [ms] implied by the Chernoff bound of
/// eq. (36) on the factored product MGF (conservative).
[[nodiscard]] double chernoff_quantile_ms(const RttModel& model,
                                          double epsilon);

}  // namespace fpsq::core
