// Open-loop Poisson load generator against `fpsq serve --listen PORT`.
//
// One thread drives every connection: requests go out on their Poisson
// schedule (round-robin over the connections) whether or not earlier
// replies have arrived, so a stalled server builds a backlog instead of
// slowing the sender. Latency runs from each request's *scheduled* send
// time to the arrival of its full response line; how late the sender
// itself ran is reported separately (late_*_ms) as the run's validity
// check.
//
// After the load, every response is matched to its request by id and
// checked: ok responses must be well formed (rtt: a finite
// rtt_quantile_ms >= deterministic_ms), and a seeded sample is compared
// against an in-process serve::Engine::execute_one of the same request on
// a cold SolverCache — the serving guarantee of docs/SERVING.md. Byte
// equality is what that guarantee promises; a response that differs only
// in the last digits of its numbers (relative 1e-12) still passes but is
// counted as ulp_diffs, because a warm SolverCache can serve the solve of
// a quantization-equal neighbouring key (see loadgen.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct LoadOptions {
  int port = 0;
  double rate = 100.0;            ///< offered load [1/s]
  std::uint64_t seed = 1;         ///< Poisson schedule + check sample
  int connections = 4;
  std::size_t check_sample = 64;  ///< responses compared in-process
};

/// Sends every request of `requests` on one Poisson schedule, then runs
/// the checks; returns the summary as one JSON object. Throws
/// std::runtime_error when the server cannot be reached.
[[nodiscard]] std::string run_load(const std::vector<std::string>& requests,
                                   const LoadOptions& options);

}  // namespace perfbench
