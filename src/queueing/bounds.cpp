#include "queueing/bounds.h"

#include <cmath>
#include <stdexcept>

namespace fpsq::queueing {

namespace {

void validate(const GiG1Moments& q) {
  if (!(q.mean_interarrival > 0.0) || !(q.mean_service > 0.0) ||
      q.cov2_interarrival < 0.0 || q.cov2_service < 0.0) {
    throw std::invalid_argument("GiG1Moments: invalid moments");
  }
  if (!(gig1_load(q) < 1.0)) {
    throw std::invalid_argument("GiG1Moments: unstable (rho >= 1)");
  }
}

}  // namespace

double gig1_load(const GiG1Moments& q) {
  return q.mean_service / q.mean_interarrival;
}

double kingman_mean_wait_bound(const GiG1Moments& q) {
  validate(q);
  const double lambda = 1.0 / q.mean_interarrival;
  const double rho = gig1_load(q);
  const double var_a =
      q.cov2_interarrival * q.mean_interarrival * q.mean_interarrival;
  const double var_s = q.cov2_service * q.mean_service * q.mean_service;
  return lambda * (var_a + var_s) / (2.0 * (1.0 - rho));
}

}  // namespace fpsq::queueing
