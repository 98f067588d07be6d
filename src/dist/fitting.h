// Erlang fitting, mirroring the two approaches the paper takes for the
// burst size:
//  * method of moments (mean + CoV), as used for the K = 28 Erlang fit;
//  * tail-distribution-function fit (the paper's preferred method,
//    Figure 1, yielding K between 15 and 20).
#pragma once

#include <span>

#include "dist/erlang.h"

namespace fpsq::dist {

/// One point of an empirical tail distribution function P(X > x).
struct TdfPoint {
  double x = 0.0;
  double tdf = 0.0;
};

/// Moment-matched Erlang: K = max(1, round(1/CoV^2)), rate = K/mean.
/// (Section 2.3.2: CoV 0.19 gives K = 28.)
[[nodiscard]] Erlang erlang_fit_moments(double mean, double cov);

/// Result of the Figure-1 style tail fit.
struct ErlangTailFit {
  int k = 1;          ///< selected Erlang order
  double rate = 0.0;  ///< K / mean (mean is pinned to the sample mean)
  double loss = 0.0;  ///< sum of squared log10-TDF residuals
};

/// Fits the Erlang order to the empirical tail: the mean is fixed to
/// `mean`, and for each K in [k_min, k_max] the squared distance between
/// log10 of the empirical and model TDFs is accumulated over the points
/// with tdf >= tdf_floor; the K with the smallest loss wins.
[[nodiscard]] ErlangTailFit erlang_fit_tail(double mean,
                                            std::span<const TdfPoint> points,
                                            int k_min = 1, int k_max = 64,
                                            double tdf_floor = 1e-6);

}  // namespace fpsq::dist
