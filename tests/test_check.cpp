// fpsq check — the differential self-check harness (src/check/).
//
// The harness is itself the safety net for every numeric path in the
// repo, so these tests pin the three properties it must not lose:
//   1. determinism — the corpus and the report are pure functions of
//      (seed, options), independent of thread count;
//   2. sensitivity — an injected solver fault or a biased kernel MUST
//      surface as mismatches (a harness that can only pass is useless);
//   3. cleanliness — the fixed tree passes on the seed corpus.
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "check/check.h"
#include "check/generator.h"
#include "core/rtt_model.h"
#include "err/fault_injection.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "queueing/giek1.h"
#include "queueing/inversion.h"
#include "queueing/tail_kernel.h"

namespace {

using fpsq::check::CheckOptions;
using fpsq::check::CheckPoint;
using fpsq::check::CheckReport;
using fpsq::check::PathPair;
using fpsq::check::run_check;
using fpsq::check::sample_point;
using fpsq::check::sample_sim_point;

class CheckTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fpsq::err::clear_faults();
    fpsq::par::set_global_thread_count(0);  // back to the default pool
  }
};

CheckOptions fast_options(std::size_t points) {
  CheckOptions opt;
  opt.points = points;
  opt.seed = 1;
  opt.serve_points = 2;
  opt.sim_points = 0;  // packet-level sim is exercised by cli_check_smoke
  return opt;
}

TEST_F(CheckTest, GeneratorIsDeterministic) {
  for (std::size_t i = 0; i < 64; ++i) {
    const CheckPoint a = sample_point(7, i);
    const CheckPoint b = sample_point(7, i);
    EXPECT_EQ(a.point_seed, b.point_seed);
    EXPECT_EQ(a.scenario.erlang_k, b.scenario.erlang_k);
    EXPECT_EQ(a.rho_down, b.rho_down);
    EXPECT_EQ(a.n_clients, b.n_clients);
    EXPECT_EQ(a.epsilon, b.epsilon);
  }
  // Adjacent indices and distinct seeds give distinct streams.
  EXPECT_NE(sample_point(7, 0).point_seed, sample_point(7, 1).point_seed);
  EXPECT_NE(sample_point(7, 0).point_seed, sample_point(8, 0).point_seed);
  EXPECT_NE(sample_point(7, 0).point_seed,
            sample_sim_point(7, 0).point_seed);
}

TEST_F(CheckTest, GeneratorSamplesAdmissiblePoints) {
  for (std::size_t i = 0; i < 256; ++i) {
    const CheckPoint p = sample_point(1, i);
    EXPECT_NO_THROW(p.scenario.validate()) << "index " << i;
    EXPECT_GT(p.epsilon, 0.0);
    EXPECT_LT(p.epsilon, 1.0);
    EXPECT_GE(p.epsilon, 1e-7);
    EXPECT_GT(p.n_clients, 0.0);
    EXPECT_GT(p.rho_down, 0.0);
    EXPECT_LT(p.rho_down, 1.0);
    // pc <= 0.8 ps: the sampled uplink load stays below the downlink's.
    EXPECT_LE(p.scenario.client_packet_bytes,
              0.8 * p.scenario.server_packet_bytes + 1e-9);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const CheckPoint p = sample_sim_point(1, i);
    EXPECT_NO_THROW(p.scenario.validate());
    EXPECT_GE(p.n_clients, 4.0);
    EXPECT_EQ(p.n_clients, std::floor(p.n_clients));
  }
}

TEST_F(CheckTest, CleanOnSeedCorpus) {
  const CheckReport report = run_check(fast_options(60));
  EXPECT_EQ(report.points, 60u);
  EXPECT_GT(report.comparisons, 200u);
  for (const auto& m : report.mismatches) {
    ADD_FAILURE() << m.to_line();
  }
  EXPECT_TRUE(report.ok());
  // The corpus may legitimately skip a few unsolvable points, but the
  // sampler aims inside the admissible region: most points evaluate.
  EXPECT_LT(report.skipped, report.points / 4);
}

TEST_F(CheckTest, ReportIsBitIdenticalAcrossThreadCounts) {
  fpsq::par::set_global_thread_count(1);
  const CheckReport serial = run_check(fast_options(40));
  fpsq::par::set_global_thread_count(8);
  const CheckReport parallel = run_check(fast_options(40));
  EXPECT_EQ(serial.to_text(), parallel.to_text());
  EXPECT_EQ(serial.comparisons, parallel.comparisons);
  EXPECT_EQ(serial.skipped, parallel.skipped);
}

TEST_F(CheckTest, InjectedSolverFaultIsCaught) {
  fpsq::err::inject_fault("queueing.dek1",
                          fpsq::err::SolverErrorCode::kNonConvergence,
                          0.3, 0.7);
  const CheckReport report = run_check(fast_options(40));
  ASSERT_FALSE(report.ok());
  bool solver_health = false;
  for (const auto& m : report.mismatches) {
    solver_health =
        solver_health || m.pair == PathPair::kSolverHealth;
  }
  EXPECT_TRUE(solver_health);
}

TEST_F(CheckTest, KernelPerturbationIsCaught) {
  // Sensitivity self-test: a 1e-6 bias on every kernel-side tail sits
  // far above the ladder (abs 1e-9 .. 1e-12) and must trip comparisons.
  CheckOptions opt = fast_options(40);
  opt.perturb = 1e-6;
  const CheckReport report = run_check(opt);
  ASSERT_FALSE(report.ok());
  EXPECT_GT(report.mismatches.size(), 4u);
}

TEST_F(CheckTest, MismatchRecordsCarryReproduction) {
  CheckOptions opt = fast_options(8);
  opt.perturb = 1e-4;
  const CheckReport report = run_check(opt);
  ASSERT_FALSE(report.ok());
  const auto& m = report.mismatches.front();
  EXPECT_EQ(m.seed, 1u);
  const std::string line = m.to_line();
  EXPECT_NE(line.find("repro: fpsq check --seed 1"), std::string::npos);
  EXPECT_NE(line.find(fpsq::check::path_pair_name(m.pair)),
            std::string::npos);
  EXPECT_NE(report.to_text().find("check: FAIL"), std::string::npos);
}

// ---- regression: the rho -> 0 atom guard (ISSUE 10 satellite) ----------
//
// With rho in {1e-4, 1e-3} the waiting-time law is almost all atom:
// P(W > 0) << any practical epsilon, so every quantile must be exactly
// 0.0 — the old guard compared with a strict inequality that let a NaN
// or boundary tail fall through into the Newton bracket search.

TEST_F(CheckTest, TinyLoadQuantilesAreExactlyZero) {
  for (const double rho : {1e-4, 1e-3}) {
    for (const int k : {1, 9}) {
      const double period = 0.04;
      auto law = fpsq::queueing::GiEk1Solver::create(
          k, rho * period, fpsq::queueing::deterministic_arrivals(period));
      ASSERT_TRUE(law.ok()) << "k=" << k << " rho=" << rho;
      const double p0 = law.value().p_wait_zero();
      ASSERT_GT(p0, 0.99);
      const fpsq::queueing::TailKernel kernel(law.value().waiting_mgf());
      for (const double eps : {1e-1, 1e-2, 1e-3}) {
        if (eps <= 1.0 - p0) continue;  // only the atom regime is pinned
        EXPECT_EQ(law.value().wait_quantile(eps), 0.0)
            << "k=" << k << " rho=" << rho << " eps=" << eps;
        EXPECT_EQ(kernel.quantile(eps), 0.0)
            << "k=" << k << " rho=" << rho << " eps=" << eps;
      }
    }
  }
}

TEST_F(CheckTest, BracketExpansionHandlesMultiModeTails) {
  // Regression for the second `fpsq check` harvest (seed 1, point 961):
  // a tail mixing decay rates three decades apart — a fast mode carrying
  // almost all mass and a slow far tail. The old bracket expansion
  // extrapolated with the average decay from zero, undershot the
  // crossing by the rate ratio on every step, and exhausted its guard
  // just below the root. The local-secant jump must invert this at any
  // epsilon from the same mean-sized starting bracket.
  const double a1 = 0.9999, d1 = 2e6;
  const double a2 = 1e-4, d2 = 1.6e5;
  const auto tail = [=](double x) {
    return x <= 0.0 ? 1.0
                    : a1 * std::exp(-d1 * x) + a2 * std::exp(-d2 * x);
  };
  const auto density = [=](double x) {
    return a1 * d1 * std::exp(-d1 * x) + a2 * d2 * std::exp(-d2 * x);
  };
  const double scale = a1 / d1 + a2 / d2;  // the mean, ~ 1e-6
  for (const double eps : {1e-3, 1e-5, 1e-7, 1e-9}) {
    const double q = fpsq::queueing::invert_tail_newton(
        tail, density, eps, scale, "test.multimode");
    EXPECT_NEAR(tail(q), eps, eps * 1e-6) << "eps=" << eps;
  }
}

TEST_F(CheckTest, NewtonDoesNotCycleOnTwoModeTails) {
  // Corpus points where the steep position mode meets the shallow
  // upstream tail. Unguarded Newton alternated across the knee (seed 3,
  // point 1960 at eps/3: 1.09e-5 <-> 3.43e-5 s around a root at
  // 2.38e-5 s) until its 60-step cap and answered non_convergence.
  struct Case {
    std::uint64_t seed;
    std::size_t index;
    double eps_divisor;
  };
  for (const Case c : {Case{16, 245, 1.0}, Case{3, 1960, 3.0}}) {
    const CheckPoint p = sample_point(c.seed, c.index);
    auto model = fpsq::core::RttModel::create(p.scenario, p.n_clients);
    ASSERT_TRUE(model.ok()) << "seed=" << c.seed << " point=" << c.index;
    auto& reg = fpsq::obs::MetricsRegistry::global();
    reg.reset();
    const double q =
        model.value().stochastic_quantile_ms(p.epsilon / c.eps_divisor);
    EXPECT_TRUE(std::isfinite(q) && q > 0.0)
        << "seed=" << c.seed << " point=" << c.index;
#ifndef FPSQ_NO_METRICS
    bool seen = false;
    for (const auto& h : reg.snapshot().histograms) {
      if (h.name != "queueing.kernel.newton_iters") continue;
      seen = h.count > 0;
      EXPECT_LE(h.max, 12.0) << "seed=" << c.seed << " point=" << c.index;
    }
    EXPECT_TRUE(seen);
#endif
  }
}

TEST_F(CheckTest, InversionAtomGuardIsNanSafe) {
  // A tail that degenerates to NaN must short-circuit to 0.0 through
  // the atom guard instead of feeding NaN into the bracket expansion
  // (where the old `tail(0) <= eps` comparison was false for NaN).
  const auto nan_tail = [](double) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  const auto no_density = [](double) { return 0.0; };
  EXPECT_EQ(fpsq::queueing::invert_tail_newton(nan_tail, no_density,
                                               1e-3, 1.0, "test.nan"),
            0.0);
  // Exact boundary: tail(0) == eps is already "at or below target".
  const auto flat_tail = [](double x) { return x <= 0.0 ? 1e-3 : 0.0; };
  EXPECT_EQ(fpsq::queueing::invert_tail_newton(flat_tail, no_density,
                                               1e-3, 1.0, "test.flat"),
            0.0);
}

}  // namespace
