// fpsq::par — a fixed-size thread pool with a deterministic
// parallel_for / parallel_map API, built for the sweep-shaped workloads
// of this repo (table/figure grids, dimensioning searches, independent
// simulation replications).
//
// Determinism contract: results are identified by *index*, never by
// completion order. parallel_map writes out[i] from body(i), so the
// returned vector is identical at any thread count provided body(i)
// depends only on i (and on state that is itself thread-count
// independent). Chunk boundaries are a function of n and the requested
// chunk size alone — never of the thread count — so a body that carries
// state across adjacent indices *within* a chunk stays bit-identical
// from --threads 1 to --threads 64.
//
// Workers are spawned on first use: ThreadPool(n) records n and starts
// no thread; the first region with two or more chunks starts the n - 1
// workers, once. A pool that never runs such a region (a 1-thread pool,
// a process that only runs 1-chunk regions) never starts a thread.
//
// Observability: the pool publishes
//     par.pool.threads            gauge     configured worker count
//     par.pool.workers            gauge     workers actually started
//     par.pool.spawn_failures     counter   worker spawns that threw
//                                           (the region still completes)
//     par.pool.tasks              counter   chunk tasks executed
//     par.pool.regions            counter   parallel_for invocations
//     par.pool.queue_high_water   gauge     max chunks ever outstanding
//     par.pool.busy_s             gauge     cumulative task wall time
//     par.pool.utilization        gauge     busy / (threads * elapsed) of
//                                           the last parallel region
// into obs::MetricsRegistry (all no-ops under -DFPSQ_NO_METRICS).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace fpsq::par {

/// The largest thread count `--threads` and FPSQ_THREADS accept.
inline constexpr unsigned kMaxThreads = 1024;

class ThreadPool {
 public:
  /// @param threads  worker count; 0 means default_thread_count().
  ///                 A pool of 1 runs everything inline on the caller.
  ///                 Starts no thread (see the header comment).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept;

  /// Runs body(i) for every i in [0, n), blocking until all complete.
  /// Work is dealt in contiguous index chunks; the caller participates.
  /// The first exception thrown by any body is rethrown here (remaining
  /// chunks of the region are still drained).
  /// @param chunk  indices per task; 0 picks a heuristic from n alone.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    std::size_t chunk = 0);

  /// Chunk-granular variant: body(begin, end) receives each contiguous
  /// index range (the primitive parallel_for is built on).
  void parallel_for_chunks(
      std::size_t n, std::size_t chunk,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Evaluates fn(i) for i in [0, n) and returns the results in index
  /// order.
  template <typename T>
  [[nodiscard]] std::vector<T> parallel_map(
      std::size_t n, const std::function<T(std::size_t)>& fn,
      std::size_t chunk = 0) {
    std::vector<T> out(n);
    parallel_for(
        n, [&out, &fn](std::size_t i) { out[i] = fn(i); }, chunk);
    return out;
  }

  /// Chunk-size heuristic used when chunk == 0: a function of n only
  /// (thread-count independent, per the determinism contract).
  [[nodiscard]] static std::size_t default_chunk(std::size_t n) noexcept;

  /// True when called from one of this pool's worker threads. Nested
  /// parallel_for calls from a worker run inline (no deadlock).
  [[nodiscard]] bool on_worker_thread() const noexcept;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-global pool, lazily constructed with
/// default_thread_count() workers. Reconfigure with
/// set_global_thread_count().
[[nodiscard]] ThreadPool& global_pool();

/// Rebuilds the global pool with `n` workers (0 = default). Not safe
/// while a parallel region is running on the global pool.
void set_global_thread_count(unsigned n);

/// Worker count of the global pool (constructs it if needed; starts no
/// thread).
[[nodiscard]] unsigned global_thread_count();

/// The default worker count: the FPSQ_THREADS environment variable when
/// set to an integer in [1, kMaxThreads], otherwise
/// std::thread::hardware_concurrency (at least 1).
///
/// The zero rule, everywhere a thread count is configured: 0 always
/// means "pick for me" (hardware concurrency), never a zero-worker
/// pool. `FPSQ_THREADS=0`, `--threads 0` on any fpsq command (including
/// `fpsq serve`) and ThreadPool{0} / set_global_thread_count(0) all
/// resolve through this function; a non-numeric, negative or
/// above-kMaxThreads FPSQ_THREADS likewise falls back to hardware
/// concurrency.
[[nodiscard]] unsigned default_thread_count();

}  // namespace fpsq::par
