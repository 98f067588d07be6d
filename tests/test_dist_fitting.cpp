#include "dist/fitting.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "dist/dist.h"
#include "stats/empirical.h"

namespace fpsq::dist {
namespace {

TEST(ErlangMomentFit, PaperKEquals28) {
  // Section 2.3.2: mean 1852, CoV 0.19 => K = 28 (1/0.19^2 = 27.7).
  const Erlang e = erlang_fit_moments(1852.0, 0.19);
  EXPECT_EQ(e.k(), 28);
  EXPECT_NEAR(e.mean(), 1852.0, 1e-9);
}

TEST(ErlangMomentFit, ClampsToOne) {
  EXPECT_EQ(erlang_fit_moments(10.0, 5.0).k(), 1);
}

TEST(ErlangTailFit, RecoversTrueOrderFromExactTdf) {
  // TDF points generated from a true Erlang(18): the fit must find 18.
  const int true_k = 18;
  const Erlang truth = Erlang::from_mean(true_k, 1852.0);
  std::vector<TdfPoint> pts;
  for (double x = 100.0; x <= 4000.0; x += 100.0) {
    pts.push_back({x, truth.ccdf(x)});
  }
  const auto fit = erlang_fit_tail(1852.0, pts, 2, 64);
  EXPECT_EQ(fit.k, true_k);
  EXPECT_NEAR(fit.rate, true_k / 1852.0, 1e-12);
}

TEST(ErlangTailFit, SampledTdfLandsNearTruth) {
  const int true_k = 20;
  const Erlang truth = Erlang::from_mean(true_k, 1852.0);
  Rng rng{5};
  stats::Empirical emp;
  for (int i = 0; i < 40000; ++i) {
    emp.add(truth.sample(rng));
  }
  std::vector<TdfPoint> pts;
  for (double x = 100.0; x <= 4000.0; x += 50.0) {
    pts.push_back({x, emp.tdf(x)});
  }
  const auto fit = erlang_fit_tail(emp.mean(), pts, 2, 64, 1e-4);
  EXPECT_NEAR(fit.k, true_k, 3);
}

TEST(ErlangTailFit, MixtureTailFitsBelowMomentFit) {
  // The paper's Figure-1 phenomenon: a law with CoV 0.19 (moment fit
  // K = 28) whose tail follows a lower-order Erlang.
  const Mixture law{std::vector<Mixture::Component>{
      {0.85, std::make_shared<Erlang>(Erlang::from_mean(40, 1852.0))},
      {0.15, std::make_shared<Erlang>(Erlang::from_mean(10, 1852.0))}}};
  std::vector<TdfPoint> pts;
  for (double x = 100.0; x <= 4200.0; x += 50.0) {
    pts.push_back({x, law.ccdf(x)});
  }
  const auto tail_fit = erlang_fit_tail(law.mean(), pts, 2, 64);
  const auto moment_fit = erlang_fit_moments(law.mean(), law.cov());
  EXPECT_EQ(moment_fit.k(), 28);
  EXPECT_LT(tail_fit.k, moment_fit.k());
  EXPECT_GE(tail_fit.k, 8);
}

TEST(ErlangTailFit, GuardsArguments) {
  std::vector<TdfPoint> pts = {{1.0, 0.5}};
  EXPECT_THROW(erlang_fit_tail(-1.0, pts), std::invalid_argument);
  EXPECT_THROW(erlang_fit_tail(1.0, pts, 5, 2), std::invalid_argument);
  std::vector<TdfPoint> empty;
  EXPECT_THROW(erlang_fit_tail(1.0, empty), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::dist
