// Performance bench for the tail-inversion kernel: evaluation budgets of
// the precompiled TailKernel path against the adaptive-quadrature +
// bisection oracle, and the wall clock of the Table-4 grid.
//
// Phase A counts tail evaluations per quantile over the paper's grid
// (K x load x epsilon): bracket-doubling + 120-step bisection on the
// quadrature oracle convolved_tail versus TailKernel::quantile
// (safeguarded Newton on the compiled pole arrays), both measured from
// the obs counters queueing.convolution.tail_evals /
// queueing.kernel.tail_evals.
//
// Phase B times the full Table-4 dimensioning grid (one
// dimension_for_rtt call per cell) serially from a cold cache and
// reports how many convolved kernels it compiled and how many of those
// carry series terms.
//
// Headline metrics:
//   tail_eval_ratio          oracle evals / kernel evals per quantile
//                            (acceptance: >= 10, deterministic)
//   quantile_max_abs_diff_s  phase-A quantile agreement
//   table4_kernel_s          Table-4 wall time (timing class)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/dimensioning.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "queueing/giek1.h"
#include "queueing/position_delay.h"
#include "queueing/solver_cache.h"
#include "queueing/tail_kernel.h"
#include "reference/convolution.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t counter_value(const char* name) {
  const auto snap = fpsq::obs::MetricsRegistry::global().snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// The oracle's quantile loop: bracket doubling from a millisecond
/// guess, then 120 bisection steps — every probe one convolved_tail
/// call.
double bisect_quantile(const fpsq::queueing::ErlangMixMgf& v,
                       const fpsq::queueing::ErlangMixture& y,
                       double epsilon) {
  double hi = 1e-3;
  int guard = 0;
  while (fpsq::queueing::convolved_tail(v, y, hi) > epsilon) {
    hi *= 2.0;
    if (++guard > 200) return hi;
  }
  double lo = 0.0;
  for (int i = 0; i < 120; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (fpsq::queueing::convolved_tail(v, y, mid) > epsilon) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

int main() {
  using namespace fpsq;
  bench::header("perf: tail-inversion kernel",
                "SoA pole evaluation + Newton quantiles vs quadrature + "
                "bisection");
  bench::JsonReport jr{"perf_kernel"};

  // ---- Phase A: tail evaluations per quantile ---------------------------
  const int ks[] = {2, 9, 20};
  const double loads[] = {0.3, 0.6, 0.9};
  const double epsilons[] = {1e-2, 1e-5, 1e-9};

  std::uint64_t old_evals = 0;
  std::uint64_t kernel_evals = 0;
  std::uint64_t quantiles = 0;
  double max_abs_diff_s = 0.0;
  std::printf("Per-quantile tail-evaluation budget:\n");
  std::printf("  %3s %5s %8s %10s %10s\n", "K", "rho", "eps", "bisect",
              "kernel");
  for (int k : ks) {
    for (double rho : loads) {
      const queueing::GiEk1Solver w{k, rho,
                                    queueing::deterministic_arrivals(1.0)};
      if (w.degenerate()) continue;
      const auto y =
          queueing::position_delay_uniform_mixture(k, w.beta());
      const queueing::TailKernel kern{w.waiting_mgf(), y};
      for (double eps : epsilons) {
        const std::uint64_t o0 =
            counter_value("queueing.convolution.tail_evals");
        const double q_old = bisect_quantile(w.waiting_mgf(), y, eps);
        const std::uint64_t o1 =
            counter_value("queueing.convolution.tail_evals");
        const std::uint64_t n0 =
            counter_value("queueing.kernel.tail_evals");
        const double q_new = kern.quantile(eps);
        const std::uint64_t n1 =
            counter_value("queueing.kernel.tail_evals");
        old_evals += o1 - o0;
        kernel_evals += n1 - n0;
        ++quantiles;
        max_abs_diff_s =
            std::max(max_abs_diff_s, std::abs(q_old - q_new));
        std::printf("  %3d %5.2f %8.0e %10llu %10llu\n", k, rho, eps,
                    static_cast<unsigned long long>(o1 - o0),
                    static_cast<unsigned long long>(n1 - n0));
      }
    }
  }
  const double eval_ratio =
      kernel_evals > 0
          ? static_cast<double>(old_evals) /
                static_cast<double>(kernel_evals)
          : 0.0;
  std::printf(
      "  total: %llu bisection evals vs %llu kernel evals over %llu "
      "quantiles -> %.1fx fewer\n",
      static_cast<unsigned long long>(old_evals),
      static_cast<unsigned long long>(kernel_evals),
      static_cast<unsigned long long>(quantiles), eval_ratio);
  std::printf("  max |q_old - q_new| = %.2e s\n", max_abs_diff_s);
  jr.metric("quantiles_evaluated", static_cast<double>(quantiles));
  jr.metric("bisection_tail_evals", static_cast<double>(old_evals));
  jr.metric("kernel_tail_evals", static_cast<double>(kernel_evals));
  jr.metric("tail_eval_ratio", eval_ratio);
  jr.metric("quantile_max_abs_diff_s", max_abs_diff_s);
  jr.metric("kernel_density_evals",
            static_cast<double>(
                counter_value("queueing.kernel.density_evals")));

  // ---- Phase B: Table-4 dimensioning grid wall clock --------------------
  par::set_global_thread_count(1);  // isolate the per-probe math
  queueing::SolverCache::global().clear();
  std::size_t cells = 0;
  const auto t0 = Clock::now();
  for (const int k : {2, 5, 9, 14, 20}) {
    core::AccessScenario scenario;
    scenario.erlang_k = k;
    for (const double bound : {40.0, 50.0, 60.0, 80.0, 100.0}) {
      (void)core::dimension_for_rtt(scenario, bound, 1e-5);
      ++cells;
    }
  }
  const double table4_kernel_s = seconds_since(t0);
  std::printf("\nTable-4 grid (%zu cells, serial): %8.3f s\n", cells,
              table4_kernel_s);
  jr.metric("table4_kernel_s", table4_kernel_s);
  jr.metric("kernel_closed_form_hits",
            static_cast<double>(
                counter_value("queueing.kernel.closed_form_hits")));
  jr.metric("kernel_series_kernels",
            static_cast<double>(
                counter_value("queueing.kernel.series_kernels")));

  bench::footnote(
      "tail_eval_ratio >= 10 is the kernel's acceptance threshold; the"
      " quadrature oracle is the reference for the quantile diff.");
  return 0;
}
