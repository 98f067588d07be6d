// The two grid paths: core::sweep_load_grid must be bit-identical at any
// thread count and cache state and degrade only a faulted point, and a
// Table-4 grid run as one serve::Engine::execute batch must equal
// dimension_for_rtt cell by cell.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "core/dimensioning.h"
#include "err/fault_injection.h"
#include "obs/json.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"

namespace core = fpsq::core;
namespace par = fpsq::par;

namespace {

core::AccessScenario paper_scenario(int k = 9) {
  core::AccessScenario s;
  s.erlang_k = k;
  return s;  // defaults are the paper's Section-4 numbers
}

constexpr double kEps = 1e-5;
constexpr double kStep = 0.1;  // loads 0.1 .. 0.9

}  // namespace

TEST(SweepRtt, ParallelBitIdenticalToSerial) {
  const auto scenario = paper_scenario();

  par::set_global_thread_count(1);
  fpsq::queueing::SolverCache::global().clear();
  const auto serial = core::sweep_load_grid(scenario, kEps, kStep);

  par::set_global_thread_count(8);
  fpsq::queueing::SolverCache::global().clear();
  const auto parallel = core::sweep_load_grid(scenario, kEps, kStep);
  par::set_global_thread_count(1);

  ASSERT_EQ(serial.size(), 9u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rtt_quantile_ms, parallel[i].rtt_quantile_ms)
        << "point " << i;
    EXPECT_EQ(serial[i].rtt_mean_ms, parallel[i].rtt_mean_ms);
    EXPECT_EQ(serial[i].load, parallel[i].load);
    EXPECT_EQ(serial[i].n_clients, parallel[i].n_clients);
  }
}

TEST(SweepRtt, WarmCacheRerunBitIdenticalToColdRun) {
  const auto scenario = paper_scenario();
  fpsq::queueing::SolverCache::global().clear();
  const auto cold = core::sweep_load_grid(scenario, kEps, kStep);
  const auto warm = core::sweep_load_grid(scenario, kEps, kStep);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].rtt_quantile_ms, warm[i].rtt_quantile_ms)
        << "point " << i;
  }
}

TEST(SweepRtt, JitteredScenarioSweeps) {
  auto scenario = paper_scenario();
  scenario.tick_jitter_cov = 0.07;  // the paper's UT2003 measurement
  par::set_global_thread_count(1);
  const auto serial = core::sweep_load_grid(scenario, kEps, kStep);
  par::set_global_thread_count(6);
  const auto parallel = core::sweep_load_grid(scenario, kEps, kStep);
  par::set_global_thread_count(1);
  ASSERT_EQ(serial.size(), 9u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rtt_quantile_ms, parallel[i].rtt_quantile_ms)
        << "point " << i;
    EXPECT_GT(serial[i].rtt_quantile_ms, 0.0);
    EXPECT_FALSE(serial[i].failed());
  }
}

TEST(DimensionTable, EngineBatchGridMatchesSerialCalls) {
  const std::vector<int> ks = {2, 9};
  const std::vector<double> bounds = {50.0, 100.0};
  std::vector<fpsq::serve::ParsedRequest> cells;
  for (const int k : ks) {
    for (const double bound : bounds) {
      fpsq::serve::ParsedRequest cell;
      cell.ok = true;
      cell.request.op = fpsq::serve::Op::kDimension;
      cell.request.scenario = paper_scenario(k);
      cell.request.bound_ms = bound;
      cell.request.admitted_at = std::chrono::steady_clock::now();
      cells.push_back(cell);
    }
  }

  par::set_global_thread_count(4);
  const auto responses = fpsq::serve::Engine{}.execute(cells);
  par::set_global_thread_count(1);
  ASSERT_EQ(responses.size(), 4u);

  std::vector<int> n_max;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& req = cells[i].request;
    const auto response = fpsq::obs::json::parse(responses[i]);
    const auto* result = response.find("result");
    ASSERT_NE(result, nullptr) << responses[i];
    const auto direct =
        core::dimension_for_rtt(req.scenario, req.bound_ms, req.epsilon);
    // 17 significant digits round-trip, so the parse is the double.
    EXPECT_EQ(result->number_or("rho_max", -1.0), direct.rho_max)
        << "cell " << i;
    EXPECT_EQ(result->number_or("n_max_int", -1.0), direct.n_max_int);
    EXPECT_EQ(result->number_or("rtt_at_max_ms", -1.0),
              direct.rtt_at_max_ms);
    n_max.push_back(direct.n_max_int);
  }
  // More gamers fit under a looser bound and a larger K (Table 4's trend).
  EXPECT_LT(n_max[0], n_max[1]);
  EXPECT_LT(n_max[0], n_max[2]);
}

// A mid-sweep solver failure fails exactly the faulted point: every
// other point stays bit-identical to an unfaulted run.
TEST(RttSweep, MidSweepFailureLeavesOtherPointsBitIdentical) {
  namespace err = fpsq::err;
  auto& cache = fpsq::queueing::SolverCache::global();
  const auto scenario = paper_scenario();
  par::set_global_thread_count(1);

  err::clear_faults();
  cache.clear();
  const auto clean = core::sweep_load_grid(scenario, kEps, kStep);

  // Fail exactly load 0.3 (index 2). Faults fire on a solve, never on a
  // cache hit, so the faulted run starts from a cleared cache.
  cache.clear();
  err::inject_fault("queueing.dek1",
                    err::SolverErrorCode::kNonConvergence, 0.28, 0.32);
  const auto faulted = core::sweep_load_grid(scenario, kEps, kStep);
  err::clear_faults();

  ASSERT_EQ(clean.size(), 9u);
  ASSERT_EQ(faulted.size(), clean.size());

  // The faulted point failed with the injected code and zero delays.
  EXPECT_TRUE(faulted[2].failed());
  EXPECT_EQ(faulted[2].error.code, err::SolverErrorCode::kNonConvergence);
  EXPECT_EQ(faulted[2].rtt_quantile_ms, 0.0);
  EXPECT_EQ(faulted[2].rtt_mean_ms, 0.0);
  EXPECT_EQ(faulted[2].n_clients, clean[2].n_clients);
  EXPECT_FALSE(clean[2].failed());

  std::size_t failed = 0;
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    if (faulted[i].failed()) ++failed;
    if (i == 2) continue;
    EXPECT_EQ(faulted[i].rtt_quantile_ms, clean[i].rtt_quantile_ms)
        << "point " << i;
    EXPECT_EQ(faulted[i].rtt_mean_ms, clean[i].rtt_mean_ms)
        << "point " << i;
    EXPECT_EQ(faulted[i].failed(), clean[i].failed()) << "point " << i;
  }
  EXPECT_EQ(failed, 1u);  // only the injected point failed
}
