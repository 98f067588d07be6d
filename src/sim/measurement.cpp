#include "sim/measurement.h"

#include <stdexcept>

namespace fpsq::sim {

DelayTap::DelayTap(double warmup_s, bool store_samples)
    : warmup_s_(warmup_s) {
  if (store_samples) {
    samples_.emplace();
  }
}

void DelayTap::record(double now_s, double delay_s) {
  if (now_s < warmup_s_) return;
  moments_.add(delay_s);
  if (samples_) {
    samples_->add(delay_s);
  }
}

double DelayTap::exact_quantile(double p) const {
  return samples().quantile(p);
}

double DelayTap::exact_tail(double x) const { return samples().tdf(x); }

const stats::Empirical& DelayTap::samples() const {
  if (!samples_) {
    throw std::logic_error("DelayTap: samples were not stored");
  }
  return *samples_;
}

}  // namespace fpsq::sim
