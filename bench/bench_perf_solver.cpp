// P1 — micro-benchmarks of the analytic machinery (google-benchmark):
// D/E_K/1 solve cost vs K, the D_u * W product, stable convolution tails,
// quantile extraction, and the full RttModel construction + query.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/rtt_model.h"
#include "queueing/giek1.h"
#include "queueing/mg1.h"
#include "queueing/mg1_erlang_service.h"
#include "queueing/position_delay.h"
#include "queueing/solver_cache.h"
#include "reference/convolution.h"

namespace {

using namespace fpsq;
using namespace fpsq::queueing;

void BM_DEk1Solve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto arrivals = deterministic_arrivals(1.0);
  for (auto _ : state) {
    GiEk1Solver q{k, 0.6, arrivals};
    benchmark::DoNotOptimize(q.p_wait_zero());
  }
}
BENCHMARK(BM_DEk1Solve)->Arg(2)->Arg(9)->Arg(20)->Arg(40);

void BM_DEk1TailEval(benchmark::State& state) {
  const GiEk1Solver q{static_cast<int>(state.range(0)), 0.6,
                      deterministic_arrivals(1.0)};
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.wait_tail(x));
    x = x < 2.0 ? x + 1e-4 : 0.1;
  }
}
BENCHMARK(BM_DEk1TailEval)->Arg(2)->Arg(20);

// The model's own Appendix-A product D_u(s) W(s): a one-pole upstream
// wait times the K-pole burst wait.
void BM_MixProduct(benchmark::State& state) {
  const GiEk1Solver w{static_cast<int>(state.range(0)), 0.6,
                      deterministic_arrivals(1.0)};
  const auto d_u = ErlangMixMgf::atom_plus_exponential(0.4, {7.0, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply(d_u, w.waiting_mgf()));
  }
}
BENCHMARK(BM_MixProduct)->Arg(2)->Arg(20)->Arg(64);

void BM_ConvolvedTail(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const GiEk1Solver w{k, 0.6, deterministic_arrivals(1.0)};
  const auto y = position_delay_uniform_mixture(k, w.beta());
  double x = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(convolved_tail(w.waiting_mgf(), y, x));
    x = x < 2.0 ? x + 0.01 : 0.3;
  }
}
BENCHMARK(BM_ConvolvedTail)->Arg(9)->Arg(20);

void BM_ConvolvedQuantile(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const GiEk1Solver w{k, 0.6, deterministic_arrivals(1.0)};
  const auto y = position_delay_uniform_mixture(k, w.beta());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        convolved_quantile(w.waiting_mgf(), y, 1e-5));
  }
}
BENCHMARK(BM_ConvolvedQuantile)->Arg(9)->Arg(20);

void BM_MD1ExactCdf(benchmark::State& state) {
  const MD1 q{0.7, 1.0};
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.wait_cdf_exact(t));
    t = t < 20.0 ? t + 0.05 : 0.0;
  }
}
BENCHMARK(BM_MD1ExactCdf);

void BM_GiEk1Solve(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto arrivals = gamma_arrivals_mean_cov(1.0, 0.3);
  for (auto _ : state) {
    GiEk1Solver q{k, 0.6, arrivals};
    benchmark::DoNotOptimize(q.p_wait_zero());
  }
}
BENCHMARK(BM_GiEk1Solve)->Arg(2)->Arg(9)->Arg(20);

// The multi-server wait's all-pole search: a 2:1 mix of Erlang(K) with
// mean 1.5 (rate K / 1.5) and Erlang(5, 6) at lambda 0.3, so the load
// stays 0.383 at every K and the transform has K + 5 poles.
void BM_MG1ErlangFullMgf(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const MG1ErlangMixService q{0.3, {{2.0, k, k / 1.5}, {1.0, 5, 6.0}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.full_mgf());
  }
}
BENCHMARK(BM_MG1ErlangFullMgf)->Arg(3)->Arg(9)->Arg(20)->Arg(64);

void BM_RttModelFullQuery(benchmark::State& state) {
  core::AccessScenario s;
  s.tick_ms = 60.0;
  s.erlang_k = static_cast<int>(state.range(0));
  const double n = s.clients_for_downlink_load(0.5);
  for (auto _ : state) {
    core::RttModel m{s, n};
    benchmark::DoNotOptimize(m.rtt_quantile_ms(1e-5));
  }
}
BENCHMARK(BM_RttModelFullQuery)->Arg(2)->Arg(9)->Arg(20);

// A model build as a distinct request pays for it: the solver cache is
// cleared before every build (BM_RttModelFullQuery hits it after its
// first iteration), and rho_d steps through 0.10..0.89 so consecutive
// builds never share roots. Each iteration runs the burst-wait roots,
// the M/D/1 pole search, the D_u W product and the total-kernel compile.
void BM_RttModelColdCreate(benchmark::State& state) {
  core::AccessScenario s;
  s.erlang_k = static_cast<int>(state.range(0));
  std::vector<double> gamers;
  for (int i = 0; i < 80; ++i) {
    gamers.push_back(s.clients_for_downlink_load(0.10 + 0.01 * i));
  }
  auto& cache = SolverCache::global();
  std::size_t i = 0;
  for (auto _ : state) {
    cache.clear();
    const auto model = core::RttModel::create(s, gamers[i]);
    benchmark::DoNotOptimize(model.ok());
    i = (i + 1) % gamers.size();
  }
}
BENCHMARK(BM_RttModelColdCreate)->Arg(9)->Arg(20)->Arg(32)->Arg(64);

}  // namespace
