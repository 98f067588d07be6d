#include "reference/lindley.h"

#include <stdexcept>

namespace fpsq::queueing {

LindleyResult simulate_gg1(const Sampler& interarrival,
                           const Sampler& service,
                           const LindleyOptions& options) {
  if (!interarrival || !service) {
    throw std::invalid_argument("simulate_gg1: null sampler");
  }
  if (options.samples == 0 || options.batch_size == 0) {
    throw std::invalid_argument("simulate_gg1: zero sizes");
  }
  dist::Rng rng{options.seed};
  LindleyResult result;
  stats::BatchMeans bm{options.batch_size};
  std::uint64_t zeros = 0;
  double w = 0.0;
  const std::size_t total = options.samples + options.warmup;
  for (std::size_t i = 0; i < total; ++i) {
    if (i >= options.warmup) {
      result.waits.add(w);
      bm.add(w);
      if (w == 0.0) ++zeros;
    }
    const double next = w + service(rng) - interarrival(rng);
    w = next > 0.0 ? next : 0.0;
  }
  result.mean_wait = bm.batches() > 0 ? bm.mean() : result.waits.mean();
  result.mean_ci95 = bm.batches() >= 2 ? bm.half_width_95() : 0.0;
  result.p_wait_zero =
      static_cast<double>(zeros) / static_cast<double>(options.samples);
  return result;
}

}  // namespace fpsq::queueing
