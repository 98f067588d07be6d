#include "reference/linalg.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dist/rng.h"

namespace fpsq::math {
namespace {

TEST(SolveDense, KnownRealSystem) {
  CMatrix a = {{{2, 0}, {1, 0}}, {{1, 0}, {3, 0}}};
  CVector b = {{5, 0}, {10, 0}};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[1].real(), 3.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), 0.0, 1e-12);
}

TEST(SolveDense, ComplexSystem) {
  // (1+i) x = 2i  =>  x = 2i/(1+i) = 1 + i.
  CMatrix a = {{{1, 1}}};
  CVector b = {{0, 2}};
  const auto x = solve_dense(a, b);
  EXPECT_NEAR(x[0].real(), 1.0, 1e-13);
  EXPECT_NEAR(x[0].imag(), 1.0, 1e-13);
}

TEST(SolveDense, RandomSystemResidual) {
  dist::Rng rng{42};
  const std::size_t n = 20;
  CMatrix a(n, CVector(n));
  CVector b(n);
  for (auto& row : a) {
    for (auto& v : row) {
      v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
  }
  for (auto& v : b) {
    v = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  const auto x = solve_dense(a, b);
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) acc += a[i][j] * x[j];
    EXPECT_NEAR(std::abs(acc - b[i]), 0.0, 1e-10) << "row " << i;
  }
}

TEST(SolveDense, SingularThrows) {
  CMatrix a = {{{1, 0}, {2, 0}}, {{2, 0}, {4, 0}}};
  CVector b = {{1, 0}, {2, 0}};
  EXPECT_THROW(solve_dense(a, b), std::runtime_error);
}

TEST(SolveDense, ShapeMismatchThrows) {
  CMatrix a = {{{1, 0}}};
  CVector b = {{1, 0}, {2, 0}};
  EXPECT_THROW(solve_dense(a, b), std::invalid_argument);
}

TEST(VandermondeTransposed, MatchesDirectConstruction) {
  // sum_j u_j y_j^{k-1} = b_k with known u.
  const CVector y = {{0.5, 0.1}, {-0.3, 0.2}, {0.8, -0.4}};
  const CVector u_true = {{1.0, 0.0}, {2.0, -1.0}, {-0.5, 0.3}};
  CVector b(3, Complex{0, 0});
  for (int k = 0; k < 3; ++k) {
    for (int j = 0; j < 3; ++j) {
      b[k] += u_true[j] * std::pow(y[j], k);
    }
  }
  const auto u = solve_vandermonde_transposed(y, b);
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(std::abs(u[j] - u_true[j]), 0.0, 1e-11) << "j=" << j;
  }
}

}  // namespace
}  // namespace fpsq::math
