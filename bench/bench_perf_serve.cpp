// Closed-loop load generator for the batched request-serving engine:
// a 1000-request mixed workload (rtt / dimension / sweep over ~15
// distinct configurations, shuffled deterministically) evaluated two
// ways —
//
//   one-shot   the pre-serve usage pattern: one process per request,
//              emulated as a cold SolverCache + single-request batch on
//              one thread per request;
//   batched    `fpsq serve` steady state: micro-batches through
//              Engine::execute with dedup, a shared warm cache and the
//              global pool.
//
// Headline metrics:
//   serve_speedup_vs_oneshot   one-shot wall time over batched wall time
//                              (acceptance criterion: >= 5x)
//   response_mismatches        count of batched responses that are not
//                              byte-identical to the one-shot response
//                              for the same request (must be 0)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The mixed workload: NDJSON request lines, heavier on `rtt` (the
/// latency-sensitive op a game portal would issue per page view) with
/// periodic `dimension` and coarse `sweep` requests mixed in.
std::vector<std::string> make_workload(std::size_t n) {
  const int ks[] = {2, 5, 9, 14, 20};
  std::vector<std::string> templates;
  for (int k : ks) {
    templates.push_back(R"("op":"rtt","gamers":60,"scenario":{"k":)" +
                        std::to_string(k) + "}");
    templates.push_back(R"("op":"rtt","gamers":110,"scenario":{"k":)" +
                        std::to_string(k) + "}");
  }
  for (int k : {2, 9, 20}) {
    templates.push_back(R"("op":"dimension","bound":50,"scenario":{"k":)" +
                        std::to_string(k) + "}");
  }
  templates.push_back(R"("op":"sweep","step":0.3)");
  templates.push_back(R"("op":"sweep","step":0.3,"scenario":{"k":2})");

  std::vector<std::string> lines;
  lines.reserve(n);
  // Deterministic shuffle via a fixed-stride walk over the templates.
  std::size_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t = (t + 7) % templates.size();
    lines.push_back("{\"id\":\"req" + std::to_string(i) + "\"," +
                    templates[t] + "}");
  }
  return lines;
}

}  // namespace

int main() {
  using namespace fpsq;
  bench::header("perf: serve engine",
                "batched request serving vs one process per request");
  bench::JsonReport jr{"perf_serve"};
  auto& cache = queueing::SolverCache::global();
  const unsigned hw = par::default_thread_count();
  jr.metric("threads", hw);

  const std::size_t kRequests = 1000;
  const std::size_t kBatch = 128;
  const auto lines = make_workload(kRequests);
  std::vector<serve::ParsedRequest> parsed;
  parsed.reserve(lines.size());
  for (const auto& line : lines) {
    parsed.push_back(serve::parse_request(line));
    if (!parsed.back().ok) {
      std::fprintf(stderr, "workload line invalid: %s\n",
                   parsed.back().error.c_str());
      return 1;
    }
    parsed.back().request.admitted_at = Clock::now();
  }
  serve::Engine engine;

  // ---- One-shot baseline ----------------------------------------------
  // Each request pays full process-start state: empty cache, one thread,
  // no batch to share work with.
  par::set_global_thread_count(1);
  std::vector<std::string> oneshot;
  oneshot.reserve(parsed.size());
  auto t0 = Clock::now();
  for (const auto& p : parsed) {
    cache.clear();
    oneshot.push_back(engine.execute_one(p.request));
  }
  const double oneshot_s = seconds_since(t0);

  // ---- Batched serve path ---------------------------------------------
  // Steady-state server: micro-batches of kBatch on the global pool,
  // cache shared across batches, per-batch latency sampled.
  par::set_global_thread_count(hw);
  cache.clear();
  std::vector<std::string> batched;
  batched.reserve(parsed.size());
  std::vector<double> batch_latency_s;
  t0 = Clock::now();
  for (std::size_t off = 0; off < parsed.size(); off += kBatch) {
    const std::size_t end = std::min(off + kBatch, parsed.size());
    std::vector<serve::ParsedRequest> batch(parsed.begin() + off,
                                            parsed.begin() + end);
    for (auto& p : batch) p.request.admitted_at = Clock::now();
    const auto b0 = Clock::now();
    auto responses = engine.execute(batch);
    batch_latency_s.push_back(seconds_since(b0));
    for (auto& r : responses) batched.push_back(std::move(r));
  }
  const double batched_s = seconds_since(t0);

  // ---- Bit-identity + latency digest ----------------------------------
  std::size_t mismatches = 0;
  std::size_t ok_responses = 0;
  for (std::size_t i = 0; i < oneshot.size(); ++i) {
    if (batched[i] != oneshot[i]) ++mismatches;
    if (batched[i].find("\"ok\":true") != std::string::npos) ++ok_responses;
  }
  std::sort(batch_latency_s.begin(), batch_latency_s.end());
  const double p99_batch_s =
      batch_latency_s[(batch_latency_s.size() * 99) / 100 >=
                              batch_latency_s.size()
                          ? batch_latency_s.size() - 1
                          : (batch_latency_s.size() * 99) / 100];
  const double speedup = batched_s > 0.0 ? oneshot_s / batched_s : 0.0;
  const double req_per_sec =
      batched_s > 0.0 ? static_cast<double>(kRequests) / batched_s : 0.0;

  std::printf("%zu requests, batch size %zu, %u threads:\n", kRequests,
              kBatch, hw);
  std::printf("  one-shot (cold cache, 1 thread)  %8.3f s\n", oneshot_s);
  std::printf("  batched  (dedup + warm cache)    %8.3f s  (%.2e req/s)\n",
              batched_s, req_per_sec);
  std::printf("  speedup                          %8.2fx\n", speedup);
  std::printf("  p99 batch latency                %8.1f ms\n",
              p99_batch_s * 1e3);
  std::printf("  ok responses %zu/%zu, mismatches vs one-shot %zu\n",
              ok_responses, kRequests, mismatches);

  jr.metric("oneshot_wall_s", oneshot_s);
  jr.metric("batched_wall_s", batched_s);
  jr.metric("serve_speedup_vs_oneshot", speedup);
  jr.metric("request_events_per_sec", req_per_sec);
  jr.metric("p99_batch_latency_s", p99_batch_s);
  jr.metric("responses_ok", static_cast<double>(ok_responses));
  jr.metric("response_mismatches", static_cast<double>(mismatches));

  par::set_global_thread_count(1);
  bench::footnote(
      "One-shot emulates the pre-serve pattern (process per request: cold"
      " cache, single thread). Batched responses are byte-compared against"
      " the one-shot response for every request.");
  return mismatches == 0 ? 0 : 1;
}
