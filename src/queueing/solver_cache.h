// Thread-safe memoization of the E_K/1 burst-wait solver, so that the
// sweep-shaped workloads (Tables 1-4, Figures 3-4, dimensioning
// searches) never re-run a K-root zeta search for parameters they have
// already seen. The M/D/1 upstream is not memoized: its one-pole solve
// costs about as much as a cache lookup.
//
// Keys are the exact bit patterns of the solver parameters, and the
// stored value for a key is the canonical solve — the plain solver
// factory, a deterministic function of the parameters alone. A hit
// therefore returns exactly the bits a cold solve would, so cache
// history (and races under the thread pool, where every thread that
// misses computes bit-identical entries) can never change a result.
// That is what keeps parallel sweeps bit-identical to serial ones and
// served answers bit-identical to one-shot runs.
//
// Observability: queueing.cache.{dek1,giek1}.{hits,misses} counters
// (each lookup counts under the family solver_names() picks for its
// arrival law) and the queueing.cache.entries gauge.
#pragma once

#include <cstdint>
#include <memory>

#include "err/error.h"
#include "queueing/giek1.h"

namespace fpsq::queueing {

class SolverCache {
 public:
  /// The process-global cache used by core::RttModel.
  [[nodiscard]] static SolverCache& global();

  SolverCache();
  ~SolverCache();
  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  /// Drops every entry (hit/miss counters in obs keep accumulating).
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// E_K/1 burst-wait solution for (k, b, arrival law), deterministic
  /// ticks included; canonical solve on miss. Memoized only when
  /// `arrivals.key_params` is non-empty (the factories fill it; custom
  /// transforms solve fresh). Throwing wrapper over giek1_result().
  [[nodiscard]] std::shared_ptr<const GiEk1Solver> giek1(
      int k, double mean_service_s, const ArrivalTransform& arrivals);

  /// Checked variant: returns the solver's structured error instead of
  /// throwing. Failed solves are never cached (a later call with relaxed
  /// fault injection may succeed).
  [[nodiscard]] err::Result<std::shared_ptr<const GiEk1Solver>>
  giek1_result(int k, double mean_service_s,
               const ArrivalTransform& arrivals);

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace fpsq::queueing
