// fpsq::par::ThreadPool — determinism contract, exception propagation,
// nesting, workers started on first use, and the global-pool plumbing.
#include "par/thread_pool.h"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace par = fpsq::par;

namespace {

/// Threads of this process, from /proc/self/task; nullopt without /proc.
std::optional<std::size_t> task_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return std::nullopt;
  std::size_t n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return std::nullopt;
    ++n;
  }
  return n;
}

/// VmSize of this process in bytes, from /proc/self/status; 0 if unknown.
/// Unused in ASan/TSan builds, which skip the one test that reads it.
[[maybe_unused]] rlim_t vm_size_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      rlim_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

}  // namespace

// First in this file on purpose: glibc keeps the stacks of joined
// threads for reuse, and a reused stack needs no new address space, so
// after other tests have run a worker could start under the limit below
// (the child then reports that and the test is skipped).
TEST(ThreadPool, FailedSpawnStillCompletesTheRegion) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer runtime needs more address space than "
                  "the limit this test sets";
#else
  if (task_count() != 1u) {
    GTEST_SKIP() << "needs /proc and a single-threaded process to fork";
  }
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Leave 1 MiB of address space: less than one thread stack, so
    // every worker spawn throws std::system_error (EAGAIN).
    const rlim_t vm = vm_size_bytes();
    if (vm == 0) _exit(10);
    const rlimit limit{vm + (rlim_t{1} << 20), vm + (rlim_t{1} << 20)};
    if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(11);
    int rc = 0;
    try {
      par::ThreadPool pool{4};
      std::vector<std::size_t> out(8, 0);
      pool.parallel_for_chunks(8, 1, [&](std::size_t b, std::size_t) {
        out[b] = b * b;
      });
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] != i * i) rc |= 1;
      }
      if (task_count() != 1u) _exit(12);
#ifndef FPSQ_NO_METRICS
      const auto snap = fpsq::obs::MetricsRegistry::global().snapshot();
      bool counted = false;
      for (const auto& c : snap.counters) {
        if (c.name == "par.pool.spawn_failures") counted = c.value == 1;
      }
      if (!counted) rc |= 2;
#endif
    } catch (...) {
      _exit(13);  // the pool let a failed spawn escape
    }
    _exit(rc);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 12) {
    GTEST_SKIP() << "a worker started under the limit (reused stack)";
  }
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: wrong region results, 2: spawn failure not counted, "
         "13: the region threw, 10/11: could not set the limit";
#endif
}

TEST(ThreadPool, WorkersStartAtTheFirstMultiChunkRegion) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the TSan runtime starts a thread of its own with the "
                  "first worker";
#endif
  const auto before = task_count();
  if (!before) GTEST_SKIP() << "needs /proc/self/task";
  par::ThreadPool pool{4};
  EXPECT_EQ(pool.thread_count(), 4u);
  EXPECT_EQ(task_count(), before);
  pool.parallel_for_chunks(8, 8, [](std::size_t, std::size_t) {});
  EXPECT_EQ(task_count(), before) << "a 1-chunk region runs inline";
  std::atomic<int> chunks{0};
  pool.parallel_for_chunks(8, 1,
                           [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 8);
  EXPECT_EQ(task_count(), *before + 3);
  pool.parallel_for_chunks(8, 1, [](std::size_t, std::size_t) {});
  EXPECT_EQ(task_count(), *before + 3) << "workers start once";
}

TEST(ThreadPool, ThreadCountFromEnvironmentIsBounded) {
  const char* saved = std::getenv("FPSQ_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  setenv("FPSQ_THREADS", "1024", 1);
  EXPECT_EQ(par::default_thread_count(), 1024u);
  setenv("FPSQ_THREADS", "1025", 1);
  EXPECT_EQ(par::default_thread_count(), hw);
  setenv("FPSQ_THREADS", "100000000000", 1);
  EXPECT_EQ(par::default_thread_count(), hw);
  if (saved != nullptr) {
    setenv("FPSQ_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("FPSQ_THREADS");
  }
}

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
