// Graceful degradation of the batch drivers: an injected (or natural)
// solver failure must flag or bound-substitute the affected cell only —
// never abort the sweep through the pool's exception_ptr — and leave
// every other cell bit-identical, at any thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dimensioning.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "err/error.h"
#include "err/fault_injection.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"

namespace core = fpsq::core;
namespace err = fpsq::err;
namespace obs = fpsq::obs;
namespace par = fpsq::par;
namespace queueing = fpsq::queueing;

namespace {

#ifndef FPSQ_NO_METRICS
std::uint64_t counter_value(const std::string& name) {
  for (const auto& c : obs::MetricsRegistry::global().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}
#endif  // FPSQ_NO_METRICS

/// Paper Section-4 scenario swept over loads 0.1 .. 0.9. The dek1 fault
/// tag is the downstream load, so an injected range [0.38, 0.62] hits
/// exactly the 0.4 / 0.5 / 0.6 points.
core::RttSweepSpec base_spec() {
  core::RttSweepSpec spec;
  for (int i = 1; i <= 9; ++i) {
    spec.n_values.push_back(
        spec.scenario.clients_for_downlink_load(0.1 * i));
  }
  return spec;
}

bool points_identical(const core::RttSweepPoint& a,
                      const core::RttSweepPoint& b) {
  return a.n_clients == b.n_clients && a.rho_up == b.rho_up &&
         a.rho_down == b.rho_down &&
         a.rtt_quantile_ms == b.rtt_quantile_ms &&
         a.rtt_mean_ms == b.rtt_mean_ms &&
         a.failed == b.failed && a.fallback_bound == b.fallback_bound &&
         a.error == b.error && a.error_detail == b.error_detail;
}

class ErrDegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    err::clear_faults();
    queueing::SolverCache::global().clear();
  }
  void TearDown() override {
    err::clear_faults();
    queueing::SolverCache::global().clear();
    par::set_global_thread_count(1);
  }
};

TEST_F(ErrDegradationTest, SweepDegradesForEveryInjectedFailureClass) {
  const auto spec = base_spec();
  const auto clean = core::sweep_rtt_quantiles(spec);
  ASSERT_EQ(clean.size(), 9u);
  for (const auto& p : clean) {
    EXPECT_FALSE(p.failed);
    EXPECT_FALSE(p.fallback_bound);
    EXPECT_EQ(p.error, err::SolverErrorCode::kNone);
  }
  for (const auto code : {err::SolverErrorCode::kNonConvergence,
                          err::SolverErrorCode::kPoleClash,
                          err::SolverErrorCode::kIllConditioned,
                          err::SolverErrorCode::kUnstable}) {
    SCOPED_TRACE(err::code_name(code));
    err::clear_faults();
    // Faults fire on a solve, never on a cache hit.
    queueing::SolverCache::global().clear();
    err::inject_fault("queueing.dek1", code, 0.38, 0.62);
    const auto points = core::sweep_rtt_quantiles(spec);  // must not throw
    ASSERT_EQ(points.size(), clean.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const bool hit = i >= 3 && i <= 5;  // loads 0.4, 0.5, 0.6
      if (!hit) {
        // Order preserved, untouched cells bit-identical to the clean run.
        EXPECT_TRUE(points_identical(points[i], clean[i])) << "point " << i;
        continue;
      }
      // Default policy: the Kingman bound stands in for the exact solve.
      EXPECT_TRUE(points[i].fallback_bound) << "point " << i;
      EXPECT_FALSE(points[i].failed) << "point " << i;
      EXPECT_EQ(points[i].error, code);
      EXPECT_FALSE(points[i].error_detail.empty());
      EXPECT_GT(points[i].rtt_quantile_ms, 0.0);
      EXPECT_GT(points[i].rtt_mean_ms, 0.0);
      // A bound, not the exact value: strictly above the exact quantile.
      EXPECT_GE(points[i].rtt_quantile_ms, clean[i].rtt_quantile_ms);
    }
  }
}

TEST_F(ErrDegradationTest, SweepMarksPointPastStabilityFailed) {
  // rho_down = 1.25 fails with kUnstable, and the Kingman bound does not
  // apply past the stability limit either: the point is marked failed
  // with zeroed values, and its neighbours are untouched.
  core::RttSweepSpec spec;
  const double unstable = spec.scenario.clients_for_downlink_load(1.25);
  spec.n_values = {spec.scenario.clients_for_downlink_load(0.3), unstable,
                   spec.scenario.clients_for_downlink_load(0.5)};
  const auto points = core::sweep_rtt_quantiles(spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_TRUE(points[1].failed);
  EXPECT_FALSE(points[1].fallback_bound);
  EXPECT_EQ(points[1].error, err::SolverErrorCode::kUnstable);
  EXPECT_FALSE(points[1].error_detail.empty());
  EXPECT_DOUBLE_EQ(points[1].n_clients, unstable);
  EXPECT_EQ(points[1].rtt_quantile_ms, 0.0);
  EXPECT_EQ(points[1].rtt_mean_ms, 0.0);

  core::RttSweepSpec neighbours = spec;
  neighbours.n_values = {spec.n_values[0], spec.n_values[2]};
  const auto alone = core::sweep_rtt_quantiles(neighbours);
  EXPECT_TRUE(points_identical(points[0], alone[0]));
  EXPECT_TRUE(points_identical(points[2], alone[1]));
  EXPECT_FALSE(points[0].failed);
  EXPECT_FALSE(points[2].failed);
}

TEST_F(ErrDegradationTest, SweepBitIdenticalAcrossThreadCountsUnderFaults) {
  // Injection is a pure function of (site, parameters), so the failed
  // set — and every other cell — cannot depend on the thread count.
  // The cache stays on: the production configuration.
  core::RttSweepSpec spec;
  for (int i = 1; i <= 9; ++i) {
    spec.n_values.push_back(
        spec.scenario.clients_for_downlink_load(0.1 * i));
  }
  err::inject_fault("queueing.dek1", err::SolverErrorCode::kPoleClash,
                    0.38, 0.62);
  par::set_global_thread_count(1);
  queueing::SolverCache::global().clear();
  const auto serial = core::sweep_rtt_quantiles(spec);
  par::set_global_thread_count(8);
  queueing::SolverCache::global().clear();
  const auto parallel = core::sweep_rtt_quantiles(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(points_identical(serial[i], parallel[i])) << "point " << i;
  }
  EXPECT_TRUE(serial[4].fallback_bound);
}

TEST_F(ErrDegradationTest, SweepDegradesOnUpstreamAndJitterSolverFaults) {
  // queueing.mg1 (upstream M/D/1) faults degrade every point.
  auto spec = base_spec();
  err::inject_fault("queueing.mg1",
                    err::SolverErrorCode::kNonConvergence);
  const auto points = core::sweep_rtt_quantiles(spec);
  for (const auto& p : points) {
    EXPECT_TRUE(p.fallback_bound || p.failed);
    EXPECT_EQ(p.error, err::SolverErrorCode::kNonConvergence);
  }
  // queueing.giek1 is the solver under tick jitter.
  err::clear_faults();
  auto jitter_spec = base_spec();
  jitter_spec.scenario.tick_jitter_cov = 0.07;
  err::inject_fault("queueing.giek1",
                    err::SolverErrorCode::kIllConditioned, 0.38, 0.62);
  const auto jittered = core::sweep_rtt_quantiles(jitter_spec);
  EXPECT_EQ(jittered[4].error, err::SolverErrorCode::kIllConditioned);
  EXPECT_TRUE(jittered[4].fallback_bound || jittered[4].failed);
  EXPECT_EQ(jittered[1].error, err::SolverErrorCode::kNone);
}

#ifndef FPSQ_NO_METRICS
TEST_F(ErrDegradationTest, SweepCountsDegradationMetrics) {
  obs::MetricsRegistry::global().reset();
  auto spec = base_spec();
  err::inject_fault("queueing.dek1",
                    err::SolverErrorCode::kNonConvergence, 0.38, 0.62);
  (void)core::sweep_rtt_quantiles(spec);
  EXPECT_EQ(counter_value("err.fallback_cells"), 3u);
  EXPECT_GE(counter_value("err.injected_faults"), 3u);
  EXPECT_GE(counter_value("err.solver_failures.non_convergence"), 3u);
}
#endif  // FPSQ_NO_METRICS

TEST_F(ErrDegradationTest, DimensionGridIsolatesNaturalBadCell) {
  // erlang_k = -3 fails AccessScenario::validate inside that cell only:
  // a natural (un-injected) kBadParameters, proving per-cell isolation.
  core::DimensioningTableSpec spec;
  spec.ks = {-3, 9};
  spec.rtt_bounds_ms = {60.0};
  const auto cells = core::dimension_table(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].erlang_k, -3);  // grid order preserved
  EXPECT_TRUE(cells[0].failed);
  EXPECT_EQ(cells[0].error, err::SolverErrorCode::kBadParameters);
  EXPECT_FALSE(cells[0].error_detail.empty());
  EXPECT_EQ(cells[0].result.n_max_int, 0);
  EXPECT_EQ(cells[1].erlang_k, 9);
  EXPECT_FALSE(cells[1].failed);
  // The surviving cell matches a standalone solve bit-for-bit.
  core::AccessScenario nine = spec.scenario;
  nine.erlang_k = 9;
  queueing::SolverCache::global().clear();
  const auto direct = core::dimension_for_rtt(nine, 60.0, spec.epsilon);
  EXPECT_EQ(cells[1].result.rho_max, direct.rho_max);
  EXPECT_EQ(cells[1].result.n_max_int, direct.n_max_int);
  EXPECT_EQ(cells[1].result.rtt_at_max_ms, direct.rtt_at_max_ms);
}

TEST_F(ErrDegradationTest, DimensionGridFlagsEachInjectedFailureClass) {
  obs::MetricsRegistry::global().reset();
  for (const auto code : {err::SolverErrorCode::kNonConvergence,
                          err::SolverErrorCode::kPoleClash,
                          err::SolverErrorCode::kIllConditioned,
                          err::SolverErrorCode::kUnstable}) {
    SCOPED_TRACE(err::code_name(code));
    err::clear_faults();
    queueing::SolverCache::global().clear();
    err::inject_fault("queueing.dek1", code);
    core::DimensioningTableSpec spec;
    spec.ks = {9};
    spec.rtt_bounds_ms = {50.0, 60.0};
    const auto cells = core::dimension_table(spec);  // must not throw
    ASSERT_EQ(cells.size(), 2u);
    for (const auto& cell : cells) {
      EXPECT_TRUE(cell.failed);
      EXPECT_EQ(cell.error, code);
      EXPECT_FALSE(cell.error_detail.empty());
    }
  }
#ifndef FPSQ_NO_METRICS
  EXPECT_EQ(counter_value("err.failed_cells"), 8u);
#endif
}

}  // namespace
