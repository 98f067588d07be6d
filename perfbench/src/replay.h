// Traced in-process replay: per-layer timings of the same requests a
// workload sends, from spans recorded in this benchmark's own code around
// the public entry points of each layer (the program itself is not
// instrumented further).
//
// Spans cannot be opened inside serve::Engine::execute, so the layers are
// timed in separate passes over the same micro-batches (cut at the
// server's --batch), each on a cleared SolverCache:
//
//   serve pass  serve::parse_request per line, Engine::execute per batch
//   core pass   per distinct work key of each batch, in the engine's
//               order: RttModel::create + breakdown_ms (rtt),
//               dimension_for_rtt_checked, Engine::execute_one (sweep,
//               i.e. sweep_rtt_quantiles on the engine's load grid); plus
//               a total_kernel()->quantile(eps) probe per rtt request
//
// An untraced warm-up of both passes comes first; then one traced pass of
// each over the whole stream gives the per-call samples and the spans.
// The core pass's request spans of a batch are recorded as children of
// the serve pass's serve.execute span of that batch (a logical parent:
// they ran later), so serve.execute's self time in the span table is the
// engine's own work — the difference of two passes, which host noise can
// push below zero. trace.overhead_ratio is the traced passes' time over
// the warm-up's. The pool runs on one thread so span time is exclusive to
// its request.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct ReplayOptions {
  std::size_t batch = 64;
  std::string spans_out;  ///< span dump (JSON lines); empty = none
  std::string table_out;  ///< per-layer table (text); empty = none
};

/// Runs the replay; returns the per-layer metrics as one JSON object.
[[nodiscard]] std::string run_replay(const std::vector<std::string>& requests,
                                     const ReplayOptions& options);

}  // namespace perfbench
