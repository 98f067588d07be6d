#include "par/thread_pool.h"

#include <pthread.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#ifndef FPSQ_NO_METRICS
#include <chrono>
#endif

#include "obs/metrics.h"

namespace fpsq::par {

namespace {

/// Workers mark themselves so nested parallel regions run inline.
/// (Untyped because ThreadPool::Impl is private; only compared, never
/// dereferenced.)
thread_local const void* tls_worker_pool = nullptr;

}  // namespace

struct ThreadPool::Impl {
  explicit Impl(unsigned threads) : thread_count(threads) {
    FPSQ_OBS_GAUGE_SET("par.pool.threads", static_cast<double>(threads));
    FPSQ_OBS_GAUGE_SET("par.pool.workers", 0.0);
  }

  /// Starts the thread_count - 1 workers; called once, by the first
  /// region that queues more than one chunk. A spawn that fails (EAGAIN
  /// at a pid or memory limit) keeps the workers already started: the
  /// caller drains every region it opens, so fewer workers only means
  /// less parallelism, never a different answer.
  void spawn_workers() {
    for (unsigned i = 0; i + 1 < thread_count; ++i) {
      try {
        workers.emplace_back([this] { worker_loop(); });
      } catch (const std::exception&) {
        FPSQ_OBS_COUNT("par.pool.spawn_failures");
        break;
      }
    }
    FPSQ_OBS_GAUGE_SET("par.pool.workers",
                       static_cast<double>(workers.size()));
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stopping = true;
    }
    cv.notify_all();
    for (auto& w : workers) w.join();
  }

  void worker_loop() {
    tls_worker_pool = this;
    // SIGTERM / SIGINT belong to the thread that owns the process's
    // loop (fpsq serve's drain reads its flag there), never a worker.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGTERM);
    sigaddset(&stop_signals, SIGINT);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping
        task = std::move(queue.front());
        queue.pop_front();
      }
      run_task(task);
    }
  }

  /// Executes one task with busy-time accounting.
  void run_task(const std::function<void()>& task) {
#ifndef FPSQ_NO_METRICS
    const auto t0 = std::chrono::steady_clock::now();
    task();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    busy_ns.fetch_add(static_cast<std::uint64_t>(wall * 1e9),
                      std::memory_order_relaxed);
    FPSQ_OBS_COUNT("par.pool.tasks");
#else
    task();
#endif
  }

  /// Pops and runs queued tasks until the queue is empty (the caller of a
  /// parallel region helps drain it — including tasks of concurrent
  /// regions, which is harmless: every region waits on its own counter).
  void help_drain() {
    for (;;) {
      std::function<void()> task;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      run_task(task);
    }
  }

  unsigned thread_count;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  bool stopping = false;
  std::atomic<std::uint64_t> busy_ns{0};
  std::once_flag spawned;
  std::vector<std::thread> workers;
};

ThreadPool::ThreadPool(unsigned threads)
    : impl_(new Impl(threads == 0 ? default_thread_count() : threads)) {}

ThreadPool::~ThreadPool() { delete impl_; }

unsigned ThreadPool::thread_count() const noexcept {
  return impl_->thread_count;
}

bool ThreadPool::on_worker_thread() const noexcept {
  return tls_worker_pool == impl_;
}

std::size_t ThreadPool::default_chunk(std::size_t n) noexcept {
  // Thread-count independent by contract. Aim for plenty of chunks to
  // balance load on any realistic core count, without making tasks so
  // small that queue traffic dominates.
  if (n <= 32) return 1;
  return n / 32;
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (chunk == 0) chunk = default_chunk(n);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  // Serial paths: a 1-thread pool, a single chunk, or a nested call from
  // one of our own workers (queueing would deadlock against ourselves).
  if (impl_->thread_count <= 1 || n_chunks == 1 || on_worker_thread()) {
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t b = c * chunk;
      body(b, std::min(n, b + chunk));
    }
    return;
  }

  std::call_once(impl_->spawned, [this] { impl_->spawn_workers(); });
  FPSQ_OBS_COUNT("par.pool.regions");
#ifndef FPSQ_NO_METRICS
  const auto region_start = std::chrono::steady_clock::now();
  const std::uint64_t busy_before =
      impl_->busy_ns.load(std::memory_order_relaxed);
#endif

  struct Region {
    std::atomic<std::size_t> done{0};
    std::mutex err_mu;
    std::exception_ptr error;
    std::mutex done_mu;
    std::condition_variable done_cv;
  };
  auto region = std::make_shared<Region>();

  auto run_chunk = [region, &body, n, chunk, n_chunks](std::size_t c) {
    try {
      const std::size_t b = c * chunk;
      body(b, std::min(n, b + chunk));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(region->err_mu);
      if (!region->error) region->error = std::current_exception();
    }
    if (region->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        n_chunks) {
      const std::lock_guard<std::mutex> lock(region->done_mu);
      region->done_cv.notify_all();
    }
  };

  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      impl_->queue.push_back([run_chunk, c] { run_chunk(c); });
    }
    FPSQ_OBS_GAUGE_MAX("par.pool.queue_high_water",
                       static_cast<double>(impl_->queue.size()));
  }
  impl_->cv.notify_all();

  // The caller is a full participant; afterwards wait for stragglers.
  impl_->help_drain();
  {
    std::unique_lock<std::mutex> lock(region->done_mu);
    region->done_cv.wait(lock, [&] {
      return region->done.load(std::memory_order_acquire) == n_chunks;
    });
  }

#ifndef FPSQ_NO_METRICS
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    region_start)
          .count();
  const double busy =
      static_cast<double>(impl_->busy_ns.load(std::memory_order_relaxed) -
                          busy_before) *
      1e-9;
  FPSQ_OBS_GAUGE_SET("par.pool.busy_s",
                     static_cast<double>(impl_->busy_ns.load(
                         std::memory_order_relaxed)) *
                         1e-9);
  if (elapsed > 0.0) {
    FPSQ_OBS_GAUGE_SET(
        "par.pool.utilization",
        busy / (elapsed * static_cast<double>(impl_->thread_count)));
  }
#endif

  if (region->error) std::rethrow_exception(region->error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t chunk) {
  parallel_for_chunks(n, chunk,
                      [&body](std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) body(i);
                      });
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

unsigned default_thread_count() {
  if (const char* env = std::getenv("FPSQ_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0 && v <= static_cast<long>(kMaxThreads)) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& global_pool() {
  const std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(0);
  return *g_pool;
}

void set_global_thread_count(unsigned n) {
  const std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool->thread_count() ==
                    (n == 0 ? default_thread_count() : n)) {
    return;
  }
  g_pool = std::make_unique<ThreadPool>(n);
}

unsigned global_thread_count() { return global_pool().thread_count(); }

}  // namespace fpsq::par
