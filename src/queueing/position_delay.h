// Packet-position delay within a burst (Section 3.2.2): a tagged packet
// waits for the burst fraction in front of it. With the burst service
// time Erlang(K, beta):
//  * fixed position theta in [0,1] (eq. 32):
//      P(s) = ((beta/theta) / (beta/theta - s))^K — an Erlang(K, beta/theta);
//  * uniform position (eqs. 33-34, K >= 2): the uniform mixture of
//      Erlang(j, beta), j = 1..K-1, each with weight 1/(K-1). K = 1 (eq.
//      33's log form, a branch point rather than a pole) is excluded, as
//      in the paper's combined model.
#pragma once

#include <vector>

#include "queueing/erlang_mix.h"

namespace fpsq::queueing {

/// A probability mixture of Erlang(j, beta) laws, j = 1..J: the one
/// representation of an Erlang law of order > 1 (ErlangMixMgf keeps
/// simple poles only). Tails are sums of *positive* regularized-gamma
/// terms, immune to the cancellation that partial fractions suffer when
/// other poles sit close to beta (see reference/convolution.h).
class ErlangMixture {
 public:
  /// weights[j-1] is the probability of the Erlang(j, beta) component;
  /// weights must be nonnegative and sum to 1 (within 1e-12).
  ErlangMixture(double beta, std::vector<double> weights);

  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }

  [[nodiscard]] double tail(double x) const;
  [[nodiscard]] double density(double x) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] Complex mgf(Complex s) const;
  [[nodiscard]] double quantile(double epsilon) const;

 private:
  double beta_;
  std::vector<double> weights_;
};

/// Eq. (32): packet always at burst fraction theta in (0, 1]; the
/// Erlang(K, beta/theta) law as a one-component mixture.
[[nodiscard]] ErlangMixture position_delay_fixed(int k, double beta,
                                                 double theta);

/// Eq. (34): packet uniformly placed; requires k >= 2. Erlang(j, beta),
/// j = 1..K-1, weights 1/(K-1).
[[nodiscard]] ErlangMixture position_delay_uniform_mixture(int k,
                                                           double beta);

}  // namespace fpsq::queueing
