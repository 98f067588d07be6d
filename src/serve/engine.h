// fpsq::serve — micro-batch execution engine behind `fpsq serve`.
//
// Engine::execute() takes one micro-batch of parsed requests (arrival
// order) and returns one NDJSON response line per request, same order:
// it answers malformed and expired requests first, then evaluates every
// other request once on the fpsq::par pool (one task each) and wraps
// each result with its own id. It is the one request-level batch
// driver: `fpsq serve` runs it per batch and `fpsq dimension --ks/
// --bounds` runs its whole grid as one batch. Engine::execute_one()
// evaluates a single request the same way; the one-shot CLI commands
// `fpsq rtt|dimension|sweep` print its response.
// Every evaluation runs RttModel::create / dimension_for_rtt_checked /
// sweep_load_grid, all routed through the exact-keyed SolverCache and a
// per-model precompiled TailKernel, so a batched (or cache-warmed)
// response is bit-identical to a cold one-shot run by construction: a
// cache hit returns the canonical solve (see queueing/solver_cache.h).
//
// Failures: every evaluation has one outcome, its exact answer or its
// structured error. A request whose deadline expired before its batch
// started is answered with a `deadline_exceeded` error instead of being
// executed; a failed solve answers with its err code; inside a sweep a
// failed point is `"status":"failed"` with zero delays (core/sweep.h).
//
// Telemetry (all under serve.*, see docs/OBSERVABILITY.md):
//   serve.batches, serve.batch_size (hist), serve.responses,
//   serve.errors, serve.timeouts,
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
