// Seeded request streams and arrival schedules of the benchmark
// workloads (see perfbench/README.md for why each one exists).
//
// Every stream is a pure function of (workload, seed, count): the same
// arguments give byte-identical NDJSON, which perfbench/tests checks.
// Request ids are "r0", "r1", ... in stream order; the load generator
// and the result checks match responses to requests by that id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Deterministic uniform stream (SplitMix64, the repo's seeding scheme).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// `count` request lines of `workload` for `seed` (no trailing newline).
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] std::vector<std::string> make_requests(
    const std::string& workload, std::uint64_t seed, std::size_t count);

/// Open-loop Poisson arrivals at `rate` [1/s]: the send offsets [s] of
/// `count` requests in [0, count / rate), ascending.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate,
                                                   std::size_t count);

}  // namespace perfbench
