#include "core/mixed_population.h"

#include <stdexcept>

#include "queueing/tail_kernel.h"

namespace fpsq::core {

MixedUpstreamModel::MixedUpstreamModel(std::vector<GamerClass> classes,
                                       double bottleneck_bps)
    : classes_(std::move(classes)), bottleneck_bps_(bottleneck_bps) {
  if (classes_.empty()) {
    throw std::invalid_argument("MixedUpstreamModel: no classes");
  }
  if (!(bottleneck_bps > 0.0)) {
    throw std::invalid_argument("MixedUpstreamModel: capacity must be > 0");
  }
  std::vector<queueing::MG1DeterministicMix::ClassSpec> specs;
  specs.reserve(classes_.size());
  for (const auto& c : classes_) {
    if (!(c.n_clients > 0.0) || !(c.packet_bytes > 0.0) ||
        !(c.tick_ms > 0.0)) {
      throw std::invalid_argument(
          "MixedUpstreamModel: class parameters must be positive");
    }
    specs.push_back({c.n_clients / (c.tick_ms * 1e-3),
                     8.0 * c.packet_bytes / bottleneck_bps});
  }
  mix_ = std::make_unique<queueing::MG1DeterministicMix>(std::move(specs));
}

double MixedUpstreamModel::wait_quantile_ms(double epsilon) const {
  // Compile the (single-pole) wait law once and Newton-invert it; the
  // compile is trivial next to the ~200 bisection tail evaluations it
  // replaces.
  const queueing::TailKernel kern{mgf()};
  return kern.quantile(epsilon) * 1e3;
}

}  // namespace fpsq::core
