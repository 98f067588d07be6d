// Small dense complex linear algebra: Gaussian elimination with partial
// pivoting and a transposed-Vandermonde solver. Sizes here are the Erlang
// order K (a few tens), so O(n^3) dense solves are entirely adequate.
#pragma once

#include <complex>
#include <vector>

namespace fpsq::math {

using Complex = std::complex<double>;
using CVector = std::vector<Complex>;
using CMatrix = std::vector<std::vector<Complex>>;  // row-major

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// @throws std::invalid_argument on shape mismatch,
///         std::runtime_error on (numerically) singular A.
[[nodiscard]] CVector solve_dense(CMatrix a, CVector b);

/// Solves the transposed Vandermonde system
///     sum_j u_j * y_j^(k-1) = b_k,   k = 1..n,
/// by building the dense matrix and calling solve_dense. Used as an
/// independent cross-check of the closed-form D/E_K/1 weights (eq. 27).
[[nodiscard]] CVector solve_vandermonde_transposed(const CVector& y,
                                                   const CVector& b);

}  // namespace fpsq::math
