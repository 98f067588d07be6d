// fpsq::serve — micro-batch execution engine behind `fpsq serve`.
//
// Engine::execute() takes one micro-batch of parsed requests (arrival
// order) and returns one NDJSON response line per request, same order.
// Within a batch, requests sharing a work_key() are deduplicated: each
// distinct key is evaluated exactly once on the fpsq::par pool, and the
// result fragment is re-wrapped with every duplicate's own id.
// Engine::execute_one() evaluates a single request the same way; the
// one-shot CLI commands `fpsq rtt|dimension|sweep` print its response.
// Every evaluation runs RttModel::create / dimension_for_rtt_checked /
// sweep_load_grid, all routed through the exact-keyed SolverCache and a
// per-model precompiled TailKernel, so a deduplicated (or cache-warmed)
// response is bit-identical to a cold one-shot run by construction: a
// cache hit returns the canonical solve (see queueing/solver_cache.h).
//
// Deadlines: a request whose deadline expired before its batch started
// is answered with a `deadline_exceeded` error instead of being
// executed. Inside a sweep evaluation a failed point degrades to the
// Kingman bound (see core/sweep.h).
//
// Telemetry (all under serve.*, see docs/OBSERVABILITY.md):
//   serve.batches, serve.batch_size (hist), serve.dedup_hits,
//   serve.responses, serve.errors, serve.timeouts,
//   serve.request_latency_ms (log-linear hist -> p50/p99 in snapshots).
#pragma once

#include <string>
#include <vector>

#include "serve/request.h"

namespace fpsq::serve {

struct EngineOptions {
  /// Significant digits for doubles in responses (1..17). 17 round-trips
  /// bit-exactly; golden files use fewer for cross-libm stability.
  int precision = 17;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(options) {}

  /// Executes one micro-batch; returns one response line (no trailing
  /// newline) per entry of `batch`, in the same order. Never throws on
  /// request failures — every outcome is a structured response.
  [[nodiscard]] std::vector<std::string> execute(
      const std::vector<ParsedRequest>& batch) const;

  /// Evaluates one valid request (no batching, no deadline check) and
  /// returns the full response line: the evaluation behind the one-shot
  /// CLI commands, and the cold reference of the bit-identity checks.
  [[nodiscard]] std::string execute_one(const Request& request) const;

 private:
  EngineOptions options_;
};

}  // namespace fpsq::serve
