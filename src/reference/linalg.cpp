#include "reference/linalg.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fpsq::math {

CVector solve_dense(CMatrix a, CVector b) {
  const std::size_t n = a.size();
  if (n == 0 || b.size() != n) {
    throw std::invalid_argument("solve_dense: shape mismatch");
  }
  for (const auto& row : a) {
    if (row.size() != n) {
      throw std::invalid_argument("solve_dense: matrix not square");
    }
  }
  // Forward elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a[col][col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::abs(a[r][col]);
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best == 0.0) {
      throw std::runtime_error("solve_dense: singular matrix");
    }
    if (pivot != col) {
      std::swap(a[pivot], a[col]);
      std::swap(b[pivot], b[col]);
    }
    const Complex inv_p = Complex{1.0, 0.0} / a[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const Complex factor = a[r][col] * inv_p;
      if (factor == Complex{0.0, 0.0}) continue;
      for (std::size_t c = col; c < n; ++c) {
        a[r][c] -= factor * a[col][c];
      }
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  CVector x(n);
  for (std::size_t i = n; i-- > 0;) {
    Complex acc = b[i];
    for (std::size_t c = i + 1; c < n; ++c) {
      acc -= a[i][c] * x[c];
    }
    x[i] = acc / a[i][i];
  }
  return x;
}

CVector solve_vandermonde_transposed(const CVector& y, const CVector& b) {
  const std::size_t n = y.size();
  if (b.size() != n) {
    throw std::invalid_argument("solve_vandermonde_transposed: size mismatch");
  }
  CMatrix a(n, CVector(n));
  for (std::size_t k = 0; k < n; ++k) {    // equation index (power k)
    for (std::size_t j = 0; j < n; ++j) {  // unknown index
      a[k][j] = std::pow(y[j], static_cast<double>(k));
    }
  }
  return solve_dense(std::move(a), b);
}

}  // namespace fpsq::math
