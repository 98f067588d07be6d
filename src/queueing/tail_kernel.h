// fpsq::queueing::TailKernel — a precompiled tail/density evaluator for
// the Erlang-mixture laws behind every quantile in the reproduction.
//
// The seed evaluated P(V + Y > x) through ErlangMixMgf::tail (a complex
// recurrence over pole terms) plus an adaptive-Simpson convolution
// integral, re-run at every bisection step of every quantile. This class
// does the algebra once at construction and leaves only real arithmetic
// in the hot path:
//
//  * the simple poles are flattened into struct-of-arrays form. A real
//    pole is a one-term real group; a real group at rate theta is the
//    Poisson-weighted sum
//        sum_l coef_l P(Poisson(theta x) = l),
//    whose weights start at the mode in log space, so no theta^l / l! is
//    ever formed and long groups (the Erlang mixture at beta, K up to
//    512) neither overflow nor lose the deep tail. Each conjugate pole
//    pair folds into one real term
//        e^{-a x} [cos(b x) * C + sin(b x) * S]
//    with constants C, S;
//  * the position delay Y = sum_j w_j Erlang(j, beta) is convolved
//    exactly with the simple poles of V: each pole theta = beta (1 - zeta)
//    contributes either one exponential term (closed form) or, when the
//    closed form would amplify rounding by |zeta|^{-J}, a bounded series
//    at beta. Everything at beta sums into one real Poisson group
//    (docs/THEORY.md §1.1), so there is one exact path for every K and
//    load; the adaptive-quadrature convolution in reference/convolution.h
//    stays the reference oracle;
//  * quantiles run safeguarded Newton (analytic density as derivative)
//    instead of 120-200 bisection steps.
//
// Obs metrics: queueing.kernel.{tail_evals, density_evals} count
// evaluations; queueing.kernel.closed_form_hits counts every (V, Y)
// kernel and queueing.kernel.series_kernels the ones with series terms;
// queueing.kernel.newton_iters histograms the Newton solves.
#pragma once

#include <cstdint>
#include <vector>

#include "queueing/erlang_mix.h"
#include "queueing/position_delay.h"

namespace fpsq::queueing {

class TailKernel {
 public:
  /// Kernel over the law of V alone (atom + signed Erlang mixture MGF).
  explicit TailKernel(const ErlangMixMgf& v);

  /// Kernel over the (atom-free) Erlang mixture Y alone.
  explicit TailKernel(const ErlangMixture& y);

  /// Kernel over V + Y (independent), exact for every pole placement.
  TailKernel(const ErlangMixMgf& v, const ErlangMixture& y);

  // ---- hot-path queries --------------------------------------------------

  /// P(X > x); 1 - atom for x <= 0.
  [[nodiscard]] double tail(double x) const;

  /// Density of the absolutely-continuous part at x > 0.
  [[nodiscard]] double density(double x) const;

  /// Smallest x >= 0 with tail(x) <= epsilon, by safeguarded Newton.
  /// @throws err::SolverFailure (kNonConvergence) on inversion failure
  [[nodiscard]] double quantile(double epsilon) const;

  // ---- structure ---------------------------------------------------------

  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// P(X = 0) (the atom of the compiled law).
  [[nodiscard]] double atom() const noexcept { return atom_; }
  /// True when no pole of V took the series form (always true for the
  /// single-law constructors).
  [[nodiscard]] bool closed_form() const noexcept { return closed_form_; }

 private:
  void compile(double constant,
               const std::vector<ErlangMixMgf::PoleTerm>& terms);
  /// Sum over all groups with the given coefficient arrays (the tail or
  /// the density set).
  [[nodiscard]] double evaluate(double x, const std::vector<double>& real,
                                const std::vector<double>& cplx_cos,
                                const std::vector<double>& cplx_sin) const;

  // Real-pole groups (SoA): group g covers coefficients
  // [offset[g], offset[g] + len[g]) of the flat arrays; tail and density
  // coefficients share the layout.
  std::vector<double> real_decay_;
  std::vector<std::uint32_t> real_off_;
  std::vector<std::uint32_t> real_len_;
  std::vector<double> real_tail_;
  std::vector<double> real_dens_;

  // Conjugate pairs (one term per pair, folded to cos/sin form).
  std::vector<double> cplx_decay_;
  std::vector<double> cplx_freq_;
  std::vector<double> cplx_tail_cos_;
  std::vector<double> cplx_tail_sin_;
  std::vector<double> cplx_dens_cos_;
  std::vector<double> cplx_dens_sin_;

  double atom_ = 1.0;
  double mean_ = 0.0;
  double bracket_scale_ = 1.0;  ///< initial quantile bracket guess
  bool closed_form_ = true;
};

}  // namespace fpsq::queueing
