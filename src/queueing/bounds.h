// Kingman's GI/G/1 mean-wait upper bound
//     E[W] <= lambda (sigma_a^2 + sigma_s^2) / (2 (1 - rho)),
// the moment-only substitute a sweep reports (status "bound") for a
// point whose exact transform solve failed.
#pragma once

namespace fpsq::queueing {

/// Inputs describing a GI/G/1 queue by first/second moments.
struct GiG1Moments {
  double mean_interarrival = 1.0;  ///< E[A] [s]
  double cov2_interarrival = 0.0;  ///< squared CoV of A
  double mean_service = 0.0;       ///< E[S] [s]
  double cov2_service = 0.0;       ///< squared CoV of S
};

/// Load rho = E[S]/E[A]; must be < 1 for the bounds to apply.
[[nodiscard]] double gig1_load(const GiG1Moments& q);

/// Kingman's upper bound on the mean wait [s].
[[nodiscard]] double kingman_mean_wait_bound(const GiG1Moments& q);

}  // namespace fpsq::queueing
