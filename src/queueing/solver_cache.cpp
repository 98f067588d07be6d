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

template <typename V>
using CacheMap = std::map<Key, std::shared_ptr<const V>>;

}  // namespace

struct SolverCache::Impl {
  mutable std::mutex mu;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  CacheMap<GiEk1Solver> giek1;
  CacheMap<MD1Solution> md1;

  [[nodiscard]] std::size_t entries_locked() const {
    return giek1.size() + md1.size();
  }

  void note_entries_locked() {
    FPSQ_OBS_GAUGE_SET("queueing.cache.entries",
                       static_cast<double>(entries_locked()));
  }

  /// Lookup/insert skeleton shared by the two solver kinds: the solve
  /// itself runs outside the lock; a concurrent miss computes the same
  /// canonical bits, and the first insert wins (both pointers are
  /// equivalent, so either may be returned). `solve` returns an
  /// err::Result<V>; failed solves count a miss but are never stored.
  template <typename V, typename Solve>
  err::Result<std::shared_ptr<const V>> get(CacheMap<V>& map,
                                            const Key& key,
                                            const obs::Counter& hit,
                                            const obs::Counter& miss,
                                            const Solve& solve) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      const auto it = map.find(key);
      if (it != map.end()) {
        ++hits;
        hit.add();
        return it->second;
      }
    }
    err::Result<V> solved = solve();
    miss.add();
    std::shared_ptr<const V> value;
    if (solved.ok()) {
      value = std::make_shared<const V>(std::move(solved).take_or_throw());
    }
    const std::lock_guard<std::mutex> lock(mu);
    ++misses;
    if (!value) return solved.error();
    const auto [it, inserted] = map.emplace(key, std::move(value));
    if (inserted) note_entries_locked();
    return it->second;
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
  impl_->md1.clear();
  impl_->note_entries_locked();
}

SolverCache::Stats SolverCache::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return {impl_->hits, impl_->misses, impl_->entries_locked()};
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
  const Key key = giek1_key(k, mean_service_s, arrivals);
  const SolverNames& names = solver_names(arrivals);
  return impl_->get(impl_->giek1, key, names.hits, names.misses, [&] {
    return GiEk1Solver::create(k, mean_service_s, arrivals);
  });
}

std::shared_ptr<const MD1Solution> SolverCache::md1(double lambda,
                                                    double service_s) {
  return md1_result(lambda, service_s).take_or_throw();
}

err::Result<std::shared_ptr<const MD1Solution>> SolverCache::md1_result(
    double lambda, double service_s) {
  const Key key{bits(lambda), bits(service_s)};
  static const obs::Counter kHits =
      obs::MetricsRegistry::global().counter("queueing.cache.md1.hits");
  static const obs::Counter kMisses =
      obs::MetricsRegistry::global().counter("queueing.cache.md1.misses");
  return impl_->get(
      impl_->md1, key, kHits, kMisses,
      [&]() -> err::Result<MD1Solution> {
        auto created = MD1::create(lambda, service_s);
        if (!created.ok()) return created.error();
        MD1 queue = std::move(created).take_or_throw();
        try {
          // The dominant-pole root search behind the MGF can fail to
          // converge; surface that as a structured error.
          ErlangMixMgf paper = queue.paper_mgf();
          return MD1Solution{std::move(queue), std::move(paper)};
        } catch (const std::exception& ex) {
          const err::SolverError e{
              err::SolverErrorCode::kNonConvergence,
              std::string("MD1 single-pole MGF: ") + ex.what()};
          err::record_failure(e);
          return e;
        }
      });
}

}  // namespace fpsq::queueing
