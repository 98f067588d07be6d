// fpsq::err — taxonomy names, Result plumbing, exception mapping,
// failure metrics and the fault-injection hook.
#include "err/error.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "err/fault_injection.h"
#include "obs/metrics.h"
#include "queueing/giek1.h"

namespace err = fpsq::err;
namespace obs = fpsq::obs;
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

constexpr err::SolverErrorCode kAllCodes[] = {
    err::SolverErrorCode::kBadParameters,
    err::SolverErrorCode::kUnstable,
    err::SolverErrorCode::kNonConvergence,
    err::SolverErrorCode::kPoleClash,
    err::SolverErrorCode::kIllConditioned,
};

class ErrTest : public ::testing::Test {
 protected:
  void SetUp() override { err::clear_faults(); }
  void TearDown() override { err::clear_faults(); }
};

TEST_F(ErrTest, CodeNamesRoundTrip) {
  for (const auto code : kAllCodes) {
    const auto back = err::code_from_name(err::code_name(code));
    ASSERT_TRUE(back.has_value()) << err::code_name(code);
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(err::code_from_name("none").has_value());
  EXPECT_FALSE(err::code_from_name("frobnication").has_value());
  EXPECT_FALSE(err::code_from_name("").has_value());
}

TEST_F(ErrTest, MessageCombinesCodeAndDetail) {
  const err::SolverError e{err::SolverErrorCode::kPoleClash,
                           "site: poles collided"};
  EXPECT_EQ(e.message(), "pole_clash: site: poles collided");
}

TEST_F(ErrTest, ResultHoldsValueOrError) {
  err::Result<int> ok{42};
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(std::move(ok).take_or_throw(), 42);

  auto bad = err::Result<int>::failure(
      err::SolverErrorCode::kNonConvergence, "iteration stalled");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, err::SolverErrorCode::kNonConvergence);
  EXPECT_EQ(bad.error().detail, "iteration stalled");
}

TEST_F(ErrTest, ThrowMappingPreservesLegacyContracts) {
  // The old constructors threw std::invalid_argument for parameter /
  // stability violations; numeric failures become SolverFailure (a
  // runtime_error carrying the structured error).
  EXPECT_THROW(err::throw_solver_error(
                   {err::SolverErrorCode::kBadParameters, "k < 1"}),
               std::invalid_argument);
  EXPECT_THROW(
      err::throw_solver_error({err::SolverErrorCode::kUnstable, "rho"}),
      std::invalid_argument);
  for (const auto code : {err::SolverErrorCode::kNonConvergence,
                          err::SolverErrorCode::kPoleClash,
                          err::SolverErrorCode::kIllConditioned}) {
    try {
      err::throw_solver_error({code, "numeric"});
      FAIL() << "should have thrown";
    } catch (const err::SolverFailure& f) {
      EXPECT_EQ(f.error().code, code);
      EXPECT_EQ(f.error().detail, "numeric");
      // IS-A runtime_error, so legacy catch sites keep working.
      EXPECT_NE(dynamic_cast<const std::runtime_error*>(&f), nullptr);
    }
  }
}

TEST_F(ErrTest, ResultValueAccessThrowsOnError) {
  const auto unstable =
      err::Result<int>::failure(err::SolverErrorCode::kUnstable, "rho");
  EXPECT_THROW(unstable.value(), std::invalid_argument);
  auto numeric = err::Result<int>::failure(
      err::SolverErrorCode::kPoleClash, "clash");
  EXPECT_THROW(std::move(numeric).take_or_throw(), err::SolverFailure);
}

#ifndef FPSQ_NO_METRICS
TEST_F(ErrTest, RecordFailureCountsTotalAndPerCode) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  err::record_failure({err::SolverErrorCode::kNonConvergence, "x"});
  err::record_failure({err::SolverErrorCode::kNonConvergence, "y"});
  err::record_failure({err::SolverErrorCode::kUnstable, "z"});
  EXPECT_EQ(counter_value("err.solver_failures"), 3u);
  EXPECT_EQ(counter_value("err.solver_failures.non_convergence"), 2u);
  EXPECT_EQ(counter_value("err.solver_failures.unstable"), 1u);
}
#endif  // FPSQ_NO_METRICS

TEST_F(ErrTest, ParseFaultSpec) {
  const auto parsed = err::parse_fault_spec(
      "queueing.dek1=non_convergence:0.4-0.6,queueing.mg1=pole_clash");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, "queueing.dek1");
  EXPECT_EQ(parsed[0].second.code,
            err::SolverErrorCode::kNonConvergence);
  EXPECT_DOUBLE_EQ(parsed[0].second.lo, 0.4);
  EXPECT_DOUBLE_EQ(parsed[0].second.hi, 0.6);
  EXPECT_EQ(parsed[1].first, "queueing.mg1");
  EXPECT_EQ(parsed[1].second.code, err::SolverErrorCode::kPoleClash);
  EXPECT_LT(parsed[1].second.lo, 0.0);  // default range covers all tags
  EXPECT_GT(parsed[1].second.hi, 1.0);
}

TEST_F(ErrTest, ParseFaultSpecSkipsMalformedEntries) {
  EXPECT_TRUE(err::parse_fault_spec("").empty());
  EXPECT_TRUE(err::parse_fault_spec("nonsense").empty());
  EXPECT_TRUE(err::parse_fault_spec("site=not_a_code").empty());
  const auto parsed =
      err::parse_fault_spec("junk,queueing.dek1=unstable,=x");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].first, "queueing.dek1");
  EXPECT_EQ(parsed[0].second.code, err::SolverErrorCode::kUnstable);
}

TEST_F(ErrTest, FaultCheckHonoursSiteAndTagRange) {
  err::inject_fault("queueing.dek1",
                    err::SolverErrorCode::kNonConvergence, 0.4, 0.6);
  EXPECT_FALSE(err::fault_check("queueing.giek1", 0.5).has_value());
  EXPECT_FALSE(err::fault_check("queueing.dek1", 0.3).has_value());
  EXPECT_FALSE(err::fault_check("queueing.dek1", 0.7).has_value());
  const auto hit = err::fault_check("queueing.dek1", 0.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->code, err::SolverErrorCode::kNonConvergence);
  EXPECT_NE(hit->detail.find("queueing.dek1"), std::string::npos);
  err::clear_faults();
  EXPECT_FALSE(err::fault_check("queueing.dek1", 0.5).has_value());
}

#ifndef FPSQ_NO_METRICS
TEST_F(ErrTest, FaultCheckCountsInjectedFaults) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  err::inject_fault("queueing.mg1", err::SolverErrorCode::kPoleClash);
  (void)err::fault_check("queueing.mg1", 0.25);
  (void)err::fault_check("queueing.mg1", 0.75);
  (void)err::fault_check("queueing.dek1", 0.5);  // different site: no hit
  EXPECT_EQ(counter_value("err.injected_faults"), 2u);
}
#endif  // FPSQ_NO_METRICS

TEST_F(ErrTest, SolverCreateReturnsTaxonomy) {
  // kBadParameters: invalid Erlang order.
  const auto tick = queueing::deterministic_arrivals(0.04);
  const auto bad = queueing::GiEk1Solver::create(0, 0.01, tick);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, err::SolverErrorCode::kBadParameters);
  // kUnstable: b >= T.
  const auto unstable = queueing::GiEk1Solver::create(9, 0.05, tick);
  ASSERT_FALSE(unstable.ok());
  EXPECT_EQ(unstable.error().code, err::SolverErrorCode::kUnstable);
  // Injected numeric failure surfaces through create() without a throw.
  err::inject_fault("queueing.dek1",
                    err::SolverErrorCode::kIllConditioned);
  const auto injected = queueing::GiEk1Solver::create(9, 0.01, tick);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.error().code,
            err::SolverErrorCode::kIllConditioned);
  // ... while the compatibility constructor throws SolverFailure.
  EXPECT_THROW(queueing::GiEk1Solver(9, 0.01, tick), err::SolverFailure);
  err::clear_faults();
  // Clean create() matches the throwing constructor bit-for-bit.
  auto created = queueing::GiEk1Solver::create(9, 0.01, tick);
  ASSERT_TRUE(created.ok());
  const queueing::GiEk1Solver direct{9, 0.01, tick};
  EXPECT_EQ(created.value().wait_quantile(1e-5),
            direct.wait_quantile(1e-5));
}

}  // namespace
