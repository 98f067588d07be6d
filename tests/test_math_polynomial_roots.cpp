#include "math/polynomial_roots.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>

#include <gtest/gtest.h>

#include "err/error.h"
#include "obs/metrics.h"

namespace fpsq::math {
namespace {

using Cx = std::complex<double>;

void expect_root_set(std::vector<Cx> got, std::vector<Cx> want,
                     double tol = 1e-9) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& w : want) {
    const auto it = std::min_element(
        got.begin(), got.end(), [&w](const Cx& a, const Cx& b) {
          return std::abs(a - w) < std::abs(b - w);
        });
    ASSERT_NE(it, got.end());
    EXPECT_LT(std::abs(*it - w), tol)
        << "missing root " << w.real() << "+" << w.imag() << "i";
    got.erase(it);
  }
}

TEST(PolyOps, MulAddEvalDerivative) {
  // (1 + z)(2 - z) = 2 + z - z^2.
  const Poly a = {{1, 0}, {1, 0}};
  const Poly b = {{2, 0}, {-1, 0}};
  const Poly ab = poly_mul(a, b);
  ASSERT_EQ(ab.size(), 3u);
  EXPECT_NEAR(ab[0].real(), 2.0, 1e-15);
  EXPECT_NEAR(ab[1].real(), 1.0, 1e-15);
  EXPECT_NEAR(ab[2].real(), -1.0, 1e-15);
  EXPECT_NEAR(std::abs(poly_eval(ab, Cx{2, 0}) - Cx{0, 0}), 0.0, 1e-14);
  const Poly d = poly_derivative(ab);  // 1 - 2z
  EXPECT_NEAR(d[0].real(), 1.0, 1e-15);
  EXPECT_NEAR(d[1].real(), -2.0, 1e-15);
  const Poly s = poly_add(a, b);  // 3 + 0z
  EXPECT_NEAR(s[1].real(), 0.0, 1e-15);
  EXPECT_EQ(poly_trim(s, 1e-12).size(), 1u);
}

TEST(DurandKerner, QuadraticRealRoots) {
  // z^2 - 3z + 2 = (z-1)(z-2).
  const Poly p = {{2, 0}, {-3, 0}, {1, 0}};
  expect_root_set(durand_kerner(p), {{1, 0}, {2, 0}});
}

TEST(DurandKerner, ComplexConjugateRoots) {
  // z^2 + 1.
  const Poly p = {{1, 0}, {0, 0}, {1, 0}};
  expect_root_set(durand_kerner(p), {{0, 1}, {0, -1}});
}

TEST(DurandKerner, WilkinsonLite) {
  // (z-1)(z-2)...(z-8): moderately ill-conditioned but solvable.
  Poly p = {{1, 0}};
  std::vector<Cx> want;
  for (int r = 1; r <= 8; ++r) {
    p = poly_mul(p, Poly{{-static_cast<double>(r), 0}, {1, 0}});
    want.push_back({static_cast<double>(r), 0});
  }
  expect_root_set(durand_kerner(p), want, 1e-6);
}

TEST(DurandKerner, ScaledLeadingCoefficient) {
  // 5(z - 3)(z + 0.5).
  const Poly p = poly_scale(
      poly_mul(Poly{{-3, 0}, {1, 0}}, Poly{{0.5, 0}, {1, 0}}), Cx{5, 0});
  expect_root_set(durand_kerner(p), {{3, 0}, {-0.5, 0}});
}

TEST(DurandKerner, RootsOfUnityDegree12) {
  Poly p(13, Cx{0, 0});
  p[0] = Cx{-1, 0};
  p[12] = Cx{1, 0};
  const auto roots = durand_kerner(p);
  ASSERT_EQ(roots.size(), 12u);
  for (const auto& r : roots) {
    EXPECT_NEAR(std::abs(r), 1.0, 1e-9);
    EXPECT_NEAR(std::abs(poly_eval(p, r)), 0.0, 1e-8);
  }
}

TEST(DurandKerner, IterationCapIsANonConvergenceFailure) {
  Poly p = {{1, 0}};
  for (int r = 1; r <= 8; ++r) {
    p = poly_mul(p, Poly{{-static_cast<double>(r), 0}, {1, 0}});
  }
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  try {
    (void)durand_kerner(p, 1e-13, 3);
    FAIL() << "three sweeps cannot resolve eight roots";
  } catch (const err::SolverFailure& e) {
    EXPECT_EQ(e.error().code, err::SolverErrorCode::kNonConvergence);
  }
#ifndef FPSQ_NO_METRICS
  std::uint64_t failures = 0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.name == "math.durand_kerner.failures") failures = c.value;
  }
  EXPECT_EQ(failures, 1u);
#endif
}

TEST(DurandKerner, Guards) {
  EXPECT_THROW(durand_kerner(Poly{{1, 0}}), std::invalid_argument);
  EXPECT_THROW(durand_kerner(Poly{}), std::invalid_argument);
}

}  // namespace
}  // namespace fpsq::math
