// Shared helpers for the test suite: Monte Carlo Lindley recursion for
// G/G/1 waiting times (the reference against which the analytic solvers
// are validated) and small numeric utilities.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "dist/rng.h"
#include "queueing/erlang_mix.h"
#include "stats/empirical.h"

namespace fpsq::testutil {

/// Simulates the Lindley recursion w_{n+1} = max(w_n + s_n - a_n, 0) and
/// returns the post-warmup waiting-time samples. `iat` and `service`
/// draw inter-arrival and service times.
inline stats::Empirical lindley_gg1(
    const std::function<double(dist::Rng&)>& iat,
    const std::function<double(dist::Rng&)>& service, std::size_t n,
    std::size_t warmup, std::uint64_t seed) {
  dist::Rng rng{seed};
  stats::Empirical out;
  double w = 0.0;
  for (std::size_t i = 0; i < n + warmup; ++i) {
    if (i >= warmup) out.add(w);
    const double next = w + service(rng) - iat(rng);
    w = next > 0.0 ? next : 0.0;
  }
  return out;
}

/// Relative difference |a-b| / max(|a|, |b|, floor).
inline double rel_diff(double a, double b, double floor = 1e-12) {
  const double scale =
      std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) / scale;
}

/// Hypoexponential law: the sum of independent Exp(rates[i]) delays,
/// built by Appendix-A products (rates must be distinct).
inline queueing::ErlangMixMgf hypoexponential(
    const std::vector<double>& rates) {
  queueing::ErlangMixMgf acc;  // point mass at zero
  for (const double r : rates) {
    acc = multiply(acc, queueing::ErlangMixMgf::atom_plus_exponential(
                            0.0, {r, 0.0}));
  }
  return acc;
}

}  // namespace fpsq::testutil
