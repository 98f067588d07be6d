// Performance bench for the parallel batch path + solver cache: the
// Table-4 dimensioning grid and a Figure-3 load sweep, each one
// serve::Engine::execute batch (one request per cell or load), and a
// replication batch, each timed serial-vs-parallel (and, for the
// analytic grids, cold-vs-warm cache), with a bit-identity check
// between the results.
//
// Headline metrics:
//   *_speedup         serial wall time over parallel (cold-cache) time
//   *_bit_identical   1.0 when serial == parallel cold == parallel warm
//                     bitwise (analytic grids: every response byte)
// Exits 1 after the BENCHJSON line when any *_bit_identical is 0.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/scenario.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"
#include "sim/replication.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

using fpsq::serve::ParsedRequest;

/// One dimension request per Table-4 cell (K x RTT bound).
std::vector<ParsedRequest> table4_batch() {
  std::vector<ParsedRequest> batch;
  for (const int k : {2, 5, 9, 14, 20}) {
    for (const double bound : {40.0, 50.0, 60.0, 80.0, 100.0}) {
      ParsedRequest p;
      p.ok = true;
      p.request.op = fpsq::serve::Op::kDimension;
      p.request.scenario.erlang_k = k;
      p.request.bound_ms = bound;
      batch.push_back(p);
    }
  }
  return batch;
}

/// One rtt request per load 0.02, 0.03, ... 0.92 (Figure 3's x axis).
std::vector<ParsedRequest> figure3_batch() {
  std::vector<ParsedRequest> batch;
  const fpsq::core::AccessScenario scenario;
  for (double rho = 0.02; rho < 0.93; rho += 0.01) {
    ParsedRequest p;
    p.ok = true;
    p.request.op = fpsq::serve::Op::kRtt;
    p.request.gamers = scenario.clients_for_downlink_load(rho);
    batch.push_back(p);
  }
  return batch;
}

/// Admits every request now and runs the batch through the engine.
std::vector<std::string> execute(std::vector<ParsedRequest> batch) {
  for (ParsedRequest& p : batch) {
    p.request.admitted_at = std::chrono::steady_clock::now();
  }
  return fpsq::serve::Engine{}.execute(batch);
}

}  // namespace

int main() {
  using namespace fpsq;
  bench::header("perf: sweep engine",
                "parallel + cached table/figure reproduction");
  bench::JsonReport jr{"perf_sweep"};
  auto& cache = queueing::SolverCache::global();
  const unsigned hw = par::default_thread_count();
  jr.metric("threads", hw);

  // ---- Table-4 dimensioning grid ---------------------------------------
  const auto table4 = table4_batch();
  par::set_global_thread_count(1);
  cache.clear();
  auto t0 = Clock::now();
  const auto serial = execute(table4);
  const double table4_serial_s = seconds_since(t0);

  // Parallel with a cold cache, then a warm rerun.
  par::set_global_thread_count(hw);
  cache.clear();
  t0 = Clock::now();
  const auto parallel_cold = execute(table4);
  const double table4_parallel_cold_s = seconds_since(t0);
  t0 = Clock::now();
  const auto parallel_warm = execute(table4);
  const double table4_parallel_warm_s = seconds_since(t0);

  const bool identical = serial == parallel_cold && serial == parallel_warm;
  std::printf("Table-4 grid (%zu cells):\n", serial.size());
  std::printf("  serial             %8.3f s\n", table4_serial_s);
  std::printf("  parallel x%-2u cold  %8.3f s\n", hw,
              table4_parallel_cold_s);
  std::printf("  parallel x%-2u warm  %8.3f s\n", hw,
              table4_parallel_warm_s);
  std::printf("  bit-identical      %s\n", identical ? "yes" : "NO");
  jr.metric("table4_serial_s", table4_serial_s);
  jr.metric("table4_parallel_cold_s", table4_parallel_cold_s);
  jr.metric("table4_parallel_warm_s", table4_parallel_warm_s);
  jr.metric("table4_speedup", table4_serial_s / table4_parallel_cold_s);
  jr.metric("table4_bit_identical", identical ? 1.0 : 0.0);

  // ---- Figure-3 load sweep ---------------------------------------------
  const auto figure3 = figure3_batch();
  par::set_global_thread_count(1);
  cache.clear();
  t0 = Clock::now();
  const auto sweep_serial = execute(figure3);
  const double sweep_serial_s = seconds_since(t0);

  par::set_global_thread_count(hw);
  cache.clear();
  t0 = Clock::now();
  const auto sweep_parallel = execute(figure3);
  const double sweep_parallel_s = seconds_since(t0);
  t0 = Clock::now();
  const auto sweep_warm = execute(figure3);
  const double sweep_warm_s = seconds_since(t0);

  const bool sweep_identical =
      sweep_serial == sweep_parallel && sweep_serial == sweep_warm;
  std::printf("\nFigure-3 sweep (%zu points):\n", figure3.size());
  std::printf("  serial             %8.3f s\n", sweep_serial_s);
  std::printf("  parallel x%-2u       %8.3f s (cold), %.3f s (warm)\n",
              hw, sweep_parallel_s, sweep_warm_s);
  std::printf("  bit-identical      %s\n", sweep_identical ? "yes" : "NO");
  jr.metric("sweep_serial_s", sweep_serial_s);
  jr.metric("sweep_parallel_cold_s", sweep_parallel_s);
  jr.metric("sweep_parallel_warm_s", sweep_warm_s);
  jr.metric("sweep_speedup", sweep_serial_s / sweep_parallel_s);
  jr.metric("sweep_bit_identical", sweep_identical ? 1.0 : 0.0);

  // ---- Independent replications ----------------------------------------
  sim::GamingScenarioConfig cfg;
  cfg.n_clients = 40;
  cfg.duration_s = 8.0;
  cfg.warmup_s = 1.0;
  cfg.store_samples = false;
  const std::size_t reps = 8;
  par::set_global_thread_count(1);
  t0 = Clock::now();
  const auto reps_serial = sim::run_replications(cfg, reps);
  const double reps_serial_s = seconds_since(t0);
  par::set_global_thread_count(hw);
  t0 = Clock::now();
  const auto reps_parallel = sim::run_replications(cfg, reps);
  const double reps_parallel_s = seconds_since(t0);
  bool reps_identical = reps_serial.size() == reps_parallel.size();
  std::uint64_t events = 0;
  for (std::size_t r = 0; r < reps_serial.size(); ++r) {
    events += reps_serial[r].events;
    reps_identical =
        reps_identical && reps_serial[r].events == reps_parallel[r].events &&
        reps_serial[r].model_rtt.moments().mean() ==
            reps_parallel[r].model_rtt.moments().mean();
  }
  const double events_per_sec =
      reps_serial_s > 0.0 ? static_cast<double>(events) / reps_serial_s
                          : 0.0;
  std::printf("\nReplications (%zu x %.0f s sim):\n", reps,
              cfg.duration_s);
  std::printf("  serial             %8.3f s  (%.2e events/s)\n",
              reps_serial_s, events_per_sec);
  std::printf("  parallel x%-2u       %8.3f s\n", hw, reps_parallel_s);
  std::printf("  bit-identical      %s\n", reps_identical ? "yes" : "NO");
  jr.metric("reps_serial_s", reps_serial_s);
  jr.metric("reps_parallel_s", reps_parallel_s);
  jr.metric("reps_speedup", reps_serial_s / reps_parallel_s);
  jr.metric("reps_bit_identical", reps_identical ? 1.0 : 0.0);
  jr.metric("sim_events_per_sec", events_per_sec);

  const auto stats = cache.stats();
  jr.metric("cache_hits", static_cast<double>(stats.hits));
  jr.metric("cache_misses", static_cast<double>(stats.misses));
  jr.metric("cache_entries", static_cast<double>(stats.entries));

  par::set_global_thread_count(1);
  bench::footnote(
      "Speedups are serial over parallel wall time; parallel results are"
      " checked bit-identical against serial at every stage.");
  jr.emit();
  return identical && sweep_identical && reps_identical ? 0 : 1;
}
