#include "math/polynomial_roots.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "err/error.h"
#include "obs/solver_telemetry.h"

namespace fpsq::math {

namespace {
using Cx = std::complex<double>;
}

Poly poly_mul(const Poly& a, const Poly& b) {
  if (a.empty() || b.empty()) return {};
  Poly out(a.size() + b.size() - 1, Cx{0.0, 0.0});
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

Poly poly_add(const Poly& a, const Poly& b) {
  Poly out(std::max(a.size(), b.size()), Cx{0.0, 0.0});
  for (std::size_t i = 0; i < a.size(); ++i) out[i] += a[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[i] += b[i];
  return out;
}

Poly poly_scale(const Poly& a, Cx k) {
  Poly out = a;
  for (auto& c : out) c *= k;
  return out;
}

Cx poly_eval(const Poly& p, Cx z) {
  Cx acc{0.0, 0.0};
  for (std::size_t i = p.size(); i-- > 0;) {
    acc = acc * z + p[i];
  }
  return acc;
}

Poly poly_derivative(const Poly& p) {
  if (p.size() <= 1) return {Cx{0.0, 0.0}};
  Poly out(p.size() - 1);
  for (std::size_t i = 1; i < p.size(); ++i) {
    out[i - 1] = p[i] * static_cast<double>(i);
  }
  return out;
}

Poly poly_trim(Poly p, double tol) {
  while (p.size() > 1 && std::abs(p.back()) <= tol) {
    p.pop_back();
  }
  return p;
}

std::vector<Cx> durand_kerner(const Poly& p_in, double tol, int max_iter) {
  const Poly p = poly_trim(p_in, 0.0);
  if (p.size() < 2) {
    throw std::invalid_argument("durand_kerner: degree must be >= 1");
  }
  const std::size_t n = p.size() - 1;
  // Monic normalization.
  Poly monic = poly_scale(p, Cx{1.0, 0.0} / p.back());
  // Cauchy-style radius bound: 1 + max |c_i|.
  double radius = 0.0;
  for (std::size_t i = 0; i + 1 < monic.size(); ++i) {
    radius = std::max(radius, std::abs(monic[i]));
  }
  radius = 1.0 + radius;
  // Initial guesses on a spiral inside the root bound (the classic
  // (0.4 + 0.9i)^k seed, rescaled).
  std::vector<Cx> z(n);
  const Cx seed{0.4, 0.9};
  Cx power{1.0, 0.0};
  for (std::size_t k = 0; k < n; ++k) {
    power *= seed;
    z[k] = power * (radius / std::abs(power)) * 0.7;
  }
  // Rounding floor of a Horner evaluation: |fl(p(z)) - p(z)| <=
  // gamma * sum_i |c_i| |z|^i with gamma ~ 4 n u for complex
  // arithmetic. Once every residual is at that floor the iterates are
  // roots to working precision, and further steps only move them by
  // rounding noise (a root set spanning 1e-2 .. 1e0 under a Cauchy
  // radius of 4e3 keeps moving by ~1e-11 forever).
  std::vector<double> abs_coeff(monic.size());
  for (std::size_t i = 0; i < monic.size(); ++i) {
    abs_coeff[i] = std::abs(monic[i]);
  }
  const double gamma =
      2.0 * static_cast<double>(n) * std::numeric_limits<double>::epsilon();
  for (int it = 0; it < max_iter; ++it) {
    double move = 0.0;
    bool at_floor = true;
    for (std::size_t k = 0; k < n; ++k) {
      Cx denom{1.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) {
        if (j == k) continue;
        denom *= z[k] - z[j];
      }
      if (std::abs(denom) == 0.0) {
        // Coinciding iterates: nudge apart.
        z[k] += Cx{1e-8 * radius, 1e-8 * radius};
        move = radius;
        at_floor = false;
        continue;
      }
      // p(z_k) and its rounding bound in one Horner pass.
      Cx value{0.0, 0.0};
      double bound = 0.0;
      const double r = std::abs(z[k]);
      for (std::size_t i = monic.size(); i-- > 0;) {
        value = value * z[k] + monic[i];
        bound = bound * r + abs_coeff[i];
      }
      if (std::abs(value) > gamma * bound) at_floor = false;
      const Cx delta = value / denom;
      z[k] -= delta;
      move = std::max(move, std::abs(delta));
    }
    if (move < tol || at_floor) {
      obs::record_solver_call("durand_kerner", it + 1, true);
      obs::record_solver_residual("durand_kerner", move);
      return z;
    }
  }
  obs::record_solver_call("durand_kerner", max_iter, false);
  throw err::SolverFailure(
      {err::SolverErrorCode::kNonConvergence,
       "durand_kerner: no convergence within " + std::to_string(max_iter) +
           " iterations"});
}

}  // namespace fpsq::math
