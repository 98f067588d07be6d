// fpsq::par::ThreadPool — determinism contract, exception propagation,
// nesting, and the global-pool plumbing.
#include "par/thread_pool.h"

#include <pthread.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace par = fpsq::par;

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  par::ThreadPool pool{4};
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelMapReturnsIndexOrder) {
  par::ThreadPool pool{8};
  const std::function<double(std::size_t)> fn = [](std::size_t i) {
    return std::sqrt(static_cast<double>(i));
  };
  const auto out = pool.parallel_map<double>(257, fn);
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::sqrt(static_cast<double>(i)));
  }
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  const std::function<double(std::size_t)> fn = [](std::size_t i) {
    // Non-associative enough that any index confusion would show.
    double acc = 1.0;
    for (int r = 0; r < 20; ++r) {
      acc = std::fma(acc, 1.0000001, std::sin(static_cast<double>(i + r)));
    }
    return acc;
  };
  par::ThreadPool serial{1};
  par::ThreadPool wide{8};
  const auto a = serial.parallel_map<double>(313, fn);
  const auto b = wide.parallel_map<double>(313, fn);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;  // bitwise, not approx
  }
}

TEST(ThreadPool, ChunkBoundariesDependOnlyOnN) {
  // Record (begin, end) pairs at two thread counts; the sets must match
  // exactly — this is what warm-chained sweeps rely on.
  auto boundaries = [](unsigned threads) {
    par::ThreadPool pool{threads};
    std::vector<std::pair<std::size_t, std::size_t>> out(100);
    std::atomic<std::size_t> slot{0};
    pool.parallel_for_chunks(83, 8, [&](std::size_t b, std::size_t e) {
      out[slot.fetch_add(1)] = {b, e};
    });
    out.resize(slot.load());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(boundaries(1), boundaries(7));
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  par::ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
  // The pool survives a throwing region.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  par::ThreadPool pool{4};
  std::atomic<int> total{0};
  pool.parallel_for(16, [&](std::size_t) {
    // From a worker this must not deadlock; it runs serially inline.
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  par::ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // no mutex: must be serial
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DefaultChunkIsThreadIndependentAndCoversN) {
  for (std::size_t n : {1u, 31u, 32u, 33u, 1000u, 4096u}) {
    const std::size_t c = par::ThreadPool::default_chunk(n);
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, n);
  }
}

TEST(ThreadPool, GlobalPoolReconfigures) {
  par::set_global_thread_count(3);
  EXPECT_EQ(par::global_thread_count(), 3u);
  par::set_global_thread_count(1);
  EXPECT_EQ(par::global_thread_count(), 1u);
}

TEST(ThreadPool, WorkersBlockStopSignals) {
  // SIGTERM / SIGINT must reach the thread that runs the process's loop
  // (fpsq serve's drain), so every worker blocks them; the caller's own
  // mask is left alone.
  const auto blocked = [](int sig) {
    sigset_t mask;
    pthread_sigmask(SIG_BLOCK, nullptr, &mask);
    return sigismember(&mask, sig) == 1;
  };
  ASSERT_FALSE(blocked(SIGTERM));
  par::ThreadPool pool{4};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_workers{0};
  std::atomic<int> unblocked{0};
  pool.parallel_for_chunks(32, 1, [&](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (std::this_thread::get_id() == caller) return;
    ++on_workers;
    if (!blocked(SIGTERM) || !blocked(SIGINT)) ++unblocked;
  });
  EXPECT_GT(on_workers.load(), 0);
  EXPECT_EQ(unblocked.load(), 0);
  EXPECT_FALSE(blocked(SIGTERM));
  EXPECT_FALSE(blocked(SIGINT));
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  par::ThreadPool pool{4};
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}
