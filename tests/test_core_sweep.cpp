// core sweep drivers — parallel evaluation must be bit-identical to
// serial, duplicates must agree, and the grid drivers must agree with
// their one-at-a-time equivalents.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <vector>

#include "err/fault_injection.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"

namespace core = fpsq::core;
namespace par = fpsq::par;

namespace {

core::AccessScenario paper_scenario(int k = 9) {
  core::AccessScenario s;
  s.erlang_k = k;
  return s;  // defaults are the paper's Section-4 numbers
}

std::vector<double> load_grid(const core::AccessScenario& s) {
  std::vector<double> n_values;
  for (double rho = 0.05; rho < 0.9; rho += 0.05) {
    n_values.push_back(s.clients_for_downlink_load(rho));
  }
  return n_values;
}

}  // namespace

TEST(SweepRtt, ParallelBitIdenticalToSerial) {
  core::RttSweepSpec spec;
  spec.scenario = paper_scenario();
  spec.n_values = load_grid(spec.scenario);

  par::set_global_thread_count(1);
  fpsq::queueing::SolverCache::global().clear();
  const auto serial = core::sweep_rtt_quantiles(spec);

  par::set_global_thread_count(8);
  fpsq::queueing::SolverCache::global().clear();
  const auto parallel = core::sweep_rtt_quantiles(spec);
  par::set_global_thread_count(1);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rtt_quantile_ms, parallel[i].rtt_quantile_ms)
        << "point " << i;
    EXPECT_EQ(serial[i].rtt_mean_ms, parallel[i].rtt_mean_ms);
    EXPECT_EQ(serial[i].rho_down, parallel[i].rho_down);
  }
}

TEST(SweepRtt, WarmCacheRerunBitIdenticalToColdRun) {
  core::RttSweepSpec spec;
  spec.scenario = paper_scenario();
  spec.n_values = load_grid(spec.scenario);
  fpsq::queueing::SolverCache::global().clear();
  const auto cold = core::sweep_rtt_quantiles(spec);
  const auto warm = core::sweep_rtt_quantiles(spec);  // all-hit rerun
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].rtt_quantile_ms, warm[i].rtt_quantile_ms)
        << "point " << i;
  }
}

TEST(SweepRtt, DuplicatePointsCollapseToOneResult) {
  core::RttSweepSpec spec;
  spec.scenario = paper_scenario();
  const double n = spec.scenario.clients_for_downlink_load(0.5);
  spec.n_values = {n, n, n + 40.0, n};
  const auto out = core::sweep_rtt_quantiles(spec);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].rtt_quantile_ms, out[1].rtt_quantile_ms);
  EXPECT_EQ(out[0].rtt_quantile_ms, out[3].rtt_quantile_ms);
  EXPECT_NE(out[0].rtt_quantile_ms, out[2].rtt_quantile_ms);
}

TEST(SweepRtt, JitteredScenarioSweeps) {
  core::RttSweepSpec spec;
  spec.scenario = paper_scenario();
  spec.scenario.tick_jitter_cov = 0.07;  // the paper's UT2003 measurement
  // rho_down = n/200 with the default scenario: stay below stability.
  spec.n_values = {30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0, 160.0,
                   170.0, 180.0};
  par::set_global_thread_count(1);
  const auto serial = core::sweep_rtt_quantiles(spec);
  par::set_global_thread_count(6);
  const auto parallel = core::sweep_rtt_quantiles(spec);
  par::set_global_thread_count(1);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].rtt_quantile_ms, parallel[i].rtt_quantile_ms)
        << "point " << i;
    EXPECT_GT(serial[i].rtt_quantile_ms, 0.0);
  }
}

TEST(DimensionTable, ParallelGridMatchesSerialCalls) {
  core::DimensioningTableSpec spec;
  spec.scenario = paper_scenario();
  spec.ks = {2, 9};
  spec.rtt_bounds_ms = {50.0, 100.0};

  par::set_global_thread_count(4);
  const auto cells = core::dimension_table(spec);
  par::set_global_thread_count(1);
  ASSERT_EQ(cells.size(), 4u);

  std::size_t i = 0;
  for (const int k : spec.ks) {
    for (const double bound : spec.rtt_bounds_ms) {
      EXPECT_EQ(cells[i].erlang_k, k);
      EXPECT_EQ(cells[i].rtt_bound_ms, bound);
      core::AccessScenario s = spec.scenario;
      s.erlang_k = k;
      const auto direct = core::dimension_for_rtt(s, bound, spec.epsilon);
      EXPECT_EQ(cells[i].result.rho_max, direct.rho_max) << "cell " << i;
      EXPECT_EQ(cells[i].result.n_max_int, direct.n_max_int);
      EXPECT_EQ(cells[i].result.rtt_at_max_ms, direct.rtt_at_max_ms);
      ++i;
    }
  }
  // More gamers fit under a looser bound and a larger K (Table 4's trend).
  EXPECT_LT(cells[0].result.n_max_int, cells[1].result.n_max_int);
  EXPECT_LT(cells[0].result.n_max_int, cells[2].result.n_max_int);
}

// A mid-sweep solver failure degrades exactly the faulted point: every
// other point stays bit-identical to an unfaulted run.
TEST(RttSweep, MidSweepFailureLeavesOtherPointsBitIdentical) {
  namespace err = fpsq::err;
  auto& cache = fpsq::queueing::SolverCache::global();
  const auto scenario = paper_scenario();
  core::RttSweepSpec spec;
  spec.scenario = scenario;
  spec.n_values = load_grid(scenario);  // 17 points, rho 0.05 .. 0.85
  par::set_global_thread_count(1);

  err::clear_faults();
  cache.clear();
  const auto clean = core::sweep_rtt_quantiles(spec);

  // Fail exactly rho = 0.25 (index 4). Faults fire on a solve, never on
  // a cache hit, so the faulted run starts from a cleared cache.
  cache.clear();
  err::inject_fault("queueing.dek1",
                    err::SolverErrorCode::kNonConvergence, 0.24, 0.26);
  const auto faulted = core::sweep_rtt_quantiles(spec);
  err::clear_faults();

  ASSERT_EQ(clean.size(), spec.n_values.size());
  ASSERT_EQ(faulted.size(), spec.n_values.size());

  // The faulted point degraded to the bound.
  EXPECT_TRUE(faulted[4].fallback_bound);
  EXPECT_EQ(faulted[4].error, err::SolverErrorCode::kNonConvergence);
  EXPECT_FALSE(clean[4].fallback_bound);

  std::size_t degraded = 0;
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    if (faulted[i].fallback_bound) ++degraded;
    if (i == 4) continue;
    EXPECT_EQ(faulted[i].rtt_quantile_ms, clean[i].rtt_quantile_ms)
        << "point " << i;
    EXPECT_EQ(faulted[i].rtt_mean_ms, clean[i].rtt_mean_ms)
        << "point " << i;
    EXPECT_EQ(faulted[i].failed, clean[i].failed) << "point " << i;
    EXPECT_EQ(faulted[i].fallback_bound, clean[i].fallback_bound)
        << "point " << i;
  }
  EXPECT_EQ(degraded, 1u);  // only the injected point degraded
}
