// Failure isolation in the two grid paths: an injected (or natural)
// solver failure must fail the affected sweep point or grid cell only —
// never abort the batch through the pool's exception_ptr — with its err
// code, and leave every other point bit-identical, at any thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dimensioning.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "err/error.h"
#include "err/fault_injection.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"

namespace core = fpsq::core;
namespace err = fpsq::err;
namespace obs = fpsq::obs;
namespace par = fpsq::par;
namespace queueing = fpsq::queueing;
namespace serve = fpsq::serve;

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
std::vector<core::RttSweepPoint> sweep(
    const core::AccessScenario& scenario = {}) {
  return core::sweep_load_grid(scenario, 1e-5, 0.1);
}

bool points_identical(const core::RttSweepPoint& a,
                      const core::RttSweepPoint& b) {
  return a.load == b.load && a.n_clients == b.n_clients &&
         a.rtt_quantile_ms == b.rtt_quantile_ms &&
         a.rtt_mean_ms == b.rtt_mean_ms && a.error.code == b.error.code &&
         a.error.detail == b.error.detail;
}

/// One Table-4 cell as `fpsq dimension --ks/--bounds` submits it.
serve::ParsedRequest dimension_cell(int k, double bound_ms) {
  serve::ParsedRequest cell;
  cell.ok = true;
  cell.request.op = serve::Op::kDimension;
  cell.request.scenario.erlang_k = k;
  cell.request.bound_ms = bound_ms;
  cell.request.admitted_at = std::chrono::steady_clock::now();
  return cell;
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

TEST_F(ErrDegradationTest, SweepFailsOnlyThePointsOfEveryInjectedClass) {
  const auto clean = sweep();
  ASSERT_EQ(clean.size(), 9u);
  for (const auto& p : clean) {
    EXPECT_FALSE(p.failed());
    EXPECT_EQ(p.error.code, err::SolverErrorCode::kNone);
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
    const auto points = sweep();  // must not throw
    ASSERT_EQ(points.size(), clean.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const bool hit = i >= 3 && i <= 5;  // loads 0.4, 0.5, 0.6
      if (!hit) {
        // Order preserved, untouched points bit-identical to the clean run.
        EXPECT_TRUE(points_identical(points[i], clean[i])) << "point " << i;
        continue;
      }
      // One failure rule: the structured error, no substitute numbers.
      EXPECT_TRUE(points[i].failed()) << "point " << i;
      EXPECT_EQ(points[i].error.code, code);
      EXPECT_FALSE(points[i].error.detail.empty());
      EXPECT_EQ(points[i].load, clean[i].load);
      EXPECT_EQ(points[i].n_clients, clean[i].n_clients);
      EXPECT_EQ(points[i].rtt_quantile_ms, 0.0);
      EXPECT_EQ(points[i].rtt_mean_ms, 0.0);
    }
  }
}

TEST_F(ErrDegradationTest, SweepMarksUnstablePointFailed) {
  // A kUnstable solve (what a load past stability returns) fails that
  // point with zeroed values, and its neighbours are untouched.
  const auto clean = sweep();
  queueing::SolverCache::global().clear();
  err::inject_fault("queueing.dek1", err::SolverErrorCode::kUnstable,
                    0.48, 0.52);
  const auto points = sweep();
  ASSERT_EQ(points.size(), clean.size());
  EXPECT_TRUE(points[4].failed());
  EXPECT_EQ(points[4].error.code, err::SolverErrorCode::kUnstable);
  EXPECT_FALSE(points[4].error.detail.empty());
  EXPECT_DOUBLE_EQ(points[4].n_clients, clean[4].n_clients);
  EXPECT_EQ(points[4].rtt_quantile_ms, 0.0);
  EXPECT_EQ(points[4].rtt_mean_ms, 0.0);
  EXPECT_TRUE(points_identical(points[3], clean[3]));
  EXPECT_TRUE(points_identical(points[5], clean[5]));
  EXPECT_FALSE(points[3].failed());
  EXPECT_FALSE(points[5].failed());
}

TEST_F(ErrDegradationTest, SweepBitIdenticalAcrossThreadCountsUnderFaults) {
  // Injection is a pure function of (site, parameters), so the failed
  // set — and every other point — cannot depend on the thread count.
  // The cache stays on: the production configuration.
  err::inject_fault("queueing.dek1", err::SolverErrorCode::kPoleClash,
                    0.38, 0.62);
  par::set_global_thread_count(1);
  queueing::SolverCache::global().clear();
  const auto serial = sweep();
  par::set_global_thread_count(8);
  queueing::SolverCache::global().clear();
  const auto parallel = sweep();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(points_identical(serial[i], parallel[i])) << "point " << i;
  }
  EXPECT_TRUE(serial[4].failed());
}

TEST_F(ErrDegradationTest, SweepFailsOnUpstreamAndJitterSolverFaults) {
  // queueing.mg1 (upstream M/D/1) faults fail every point.
  err::inject_fault("queueing.mg1",
                    err::SolverErrorCode::kNonConvergence);
  const auto points = sweep();
  ASSERT_FALSE(points.empty());
  for (const auto& p : points) {
    EXPECT_TRUE(p.failed());
    EXPECT_EQ(p.error.code, err::SolverErrorCode::kNonConvergence);
  }
  // queueing.giek1 is the solver under tick jitter.
  err::clear_faults();
  core::AccessScenario jittered_scenario;
  jittered_scenario.tick_jitter_cov = 0.07;
  err::inject_fault("queueing.giek1",
                    err::SolverErrorCode::kIllConditioned, 0.38, 0.62);
  const auto jittered = sweep(jittered_scenario);
  EXPECT_EQ(jittered[4].error.code, err::SolverErrorCode::kIllConditioned);
  EXPECT_TRUE(jittered[4].failed());
  EXPECT_EQ(jittered[1].error.code, err::SolverErrorCode::kNone);
}

#ifndef FPSQ_NO_METRICS
TEST_F(ErrDegradationTest, SweepCountsFailedPoints) {
  obs::MetricsRegistry::global().reset();
  err::inject_fault("queueing.dek1",
                    err::SolverErrorCode::kNonConvergence, 0.38, 0.62);
  (void)sweep();
  EXPECT_EQ(counter_value("err.failed_cells"), 3u);
  EXPECT_GE(counter_value("err.injected_faults"), 3u);
  EXPECT_GE(counter_value("err.solver_failures.non_convergence"), 3u);
}
#endif  // FPSQ_NO_METRICS

TEST_F(ErrDegradationTest, DimensionGridIsolatesNaturalBadCell) {
  // erlang_k = -3 fails AccessScenario::validate inside that cell only:
  // a natural (un-injected) kBadParameters, proving per-cell isolation.
  const auto responses =
      serve::Engine{}.execute({dimension_cell(-3, 60.0),
                               dimension_cell(9, 60.0)});
  ASSERT_EQ(responses.size(), 2u);  // grid order preserved
  const auto bad = obs::json::parse(responses[0]);
  EXPECT_EQ(bad.find("result"), nullptr);
  const auto* error = bad.find("error");
  ASSERT_NE(error, nullptr) << responses[0];
  EXPECT_EQ(error->string_or("code", ""), "bad_parameters");
  EXPECT_FALSE(error->string_or("detail", "").empty());
  const auto good = obs::json::parse(responses[1]);
  const auto* result = good.find("result");
  ASSERT_NE(result, nullptr) << responses[1];
  // The surviving cell matches a standalone solve bit-for-bit.
  core::AccessScenario nine;
  nine.erlang_k = 9;
  queueing::SolverCache::global().clear();
  const auto direct = core::dimension_for_rtt(nine, 60.0, 1e-5);
  EXPECT_EQ(result->number_or("rho_max", -1.0), direct.rho_max);
  EXPECT_EQ(result->number_or("n_max_int", -1.0), direct.n_max_int);
  EXPECT_EQ(result->number_or("rtt_at_max_ms", -1.0), direct.rtt_at_max_ms);
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
    const auto responses = serve::Engine{}.execute(
        {dimension_cell(9, 50.0), dimension_cell(9, 60.0)});  // no throw
    ASSERT_EQ(responses.size(), 2u);
    for (const auto& response : responses) {
      const auto parsed = obs::json::parse(response);
      const auto* error = parsed.find("error");
      ASSERT_NE(error, nullptr) << response;
      EXPECT_EQ(error->string_or("code", ""), err::code_name(code));
      EXPECT_FALSE(error->string_or("detail", "").empty());
    }
  }
#ifndef FPSQ_NO_METRICS
  EXPECT_EQ(counter_value("serve.errors"), 8u);
#endif
}

}  // namespace
