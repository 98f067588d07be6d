#include "queueing/solver_cache.h"

#include <bit>
#include <map>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace fpsq::queueing {

namespace {

/// Parameters keyed by their exact bit patterns: distinct doubles never
/// share an entry.
using Key = std::vector<std::int64_t>;

std::int64_t bits(double v) noexcept {
  return std::bit_cast<std::int64_t>(v);
}

}  // namespace

struct SolverCache::Impl {
  mutable std::mutex mu;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::map<Key, std::shared_ptr<const GiEk1Solver>> giek1;

  void note_entries_locked() {
    FPSQ_OBS_GAUGE_SET("queueing.cache.entries",
                       static_cast<double>(giek1.size()));
  }
};

SolverCache::SolverCache() : impl_(new Impl) {}
SolverCache::~SolverCache() { delete impl_; }

SolverCache& SolverCache::global() {
  // Leaked for the same shutdown-ordering reason as MetricsRegistry.
  static SolverCache* cache = new SolverCache;
  return *cache;
}

void SolverCache::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->giek1.clear();
  impl_->note_entries_locked();
}

SolverCache::Stats SolverCache::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return {impl_->hits, impl_->misses, impl_->giek1.size()};
}

namespace {

Key giek1_key(int k, double mean_service_s,
              const ArrivalTransform& arrivals) {
  Key key{k, bits(mean_service_s), bits(arrivals.mean)};
  for (char c : arrivals.name) key.push_back(c);
  for (double p : arrivals.key_params) key.push_back(bits(p));
  return key;
}

}  // namespace

std::shared_ptr<const GiEk1Solver> SolverCache::giek1(
    int k, double mean_service_s, const ArrivalTransform& arrivals) {
  return giek1_result(k, mean_service_s, arrivals).take_or_throw();
}

err::Result<std::shared_ptr<const GiEk1Solver>> SolverCache::giek1_result(
    int k, double mean_service_s, const ArrivalTransform& arrivals) {
  if (arrivals.key_params.empty()) {
    // No numeric identity: solve fresh, never memoize.
    auto solved = GiEk1Solver::create(k, mean_service_s, arrivals);
    if (!solved.ok()) return solved.error();
    return std::make_shared<const GiEk1Solver>(
        std::move(solved).take_or_throw());
  }
  // The solve runs outside the lock; a concurrent miss computes the
  // same canonical bits, and the first insert wins (both pointers are
  // equivalent, so either may be returned). Failed solves count a miss
  // but are never stored.
  const Key key = giek1_key(k, mean_service_s, arrivals);
  const SolverNames& names = solver_names(arrivals);
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->giek1.find(key);
    if (it != impl_->giek1.end()) {
      ++impl_->hits;
      names.hits.add();
      return it->second;
    }
  }
  auto solved = GiEk1Solver::create(k, mean_service_s, arrivals);
  names.misses.add();
  std::shared_ptr<const GiEk1Solver> value;
  if (solved.ok()) {
    value = std::make_shared<const GiEk1Solver>(
        std::move(solved).take_or_throw());
  }
  const std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->misses;
  if (!value) return solved.error();
  const auto [it, inserted] = impl_->giek1.emplace(key, std::move(value));
  if (inserted) impl_->note_entries_locked();
  return it->second;
}

}  // namespace fpsq::queueing
