// Sum-of-exponential-terms representation of moment generating functions
// — the algebra behind Section 3.3 / Appendix A of the paper.
//
// A delay MGF here has the form
//     F(s) = c0 + sum_over_poles c_theta * theta / (theta - s),
// i.e. a constant (atom at zero) plus signed, possibly complex-weighted
// exponential components with simple poles. This family is closed under
// products with disjoint pole sets (Appendix A: the coefficient at a pole
// of one factor is c_theta times the other factor's value at theta) and
// inverts explicitly:
//     contribution of c * theta / (theta - s) to P(X > x)  is
//     c * e^{-theta x} .
// Complex poles appear in conjugate pairs, so tails are real. Laws with
// a pole of higher order (the Erlang position delay) are ErlangMixture
// (queueing/position_delay.h).
#pragma once

#include <complex>
#include <vector>

namespace fpsq::queueing {

using Complex = std::complex<double>;

class GiEk1Solver;

class ErlangMixMgf {
 public:
  /// One simple pole: coeff multiplies theta / (theta - s).
  struct PoleTerm {
    Complex theta;  ///< pole, Re(theta) > 0
    Complex coeff;
  };

  /// Degenerate MGF of the zero random variable (F == 1).
  ErlangMixMgf();

  /// General builder. Poles must be distinct (pairwise relative distance
  /// > kPoleClash) and have positive real part.
  ErlangMixMgf(double constant, std::vector<PoleTerm> terms);

  /// Atom at zero of mass `atom` plus (1 - atom) * Exponential(theta):
  /// F(s) = atom + (1-atom) * theta/(theta - s). The form of eq. (14).
  [[nodiscard]] static ErlangMixMgf atom_plus_exponential(double atom,
                                                          Complex theta);

  // ---- evaluation ------------------------------------------------------

  /// F(s) at a complex point (s must avoid the poles).
  [[nodiscard]] Complex value(Complex s) const;

  /// F(s) at a real point; the imaginary parts of conjugate terms cancel.
  [[nodiscard]] double value_real(double s) const;

  // ---- probabilistic queries ------------------------------------------

  /// P(X > x) for x > 0 by explicit inversion; for x <= 0 returns
  /// 1 - constant (the mass strictly above zero).
  [[nodiscard]] double tail(double x) const;

  /// Density of the absolutely-continuous part at x > 0 (excludes the
  /// atom at zero): sum of c * theta * e^{-theta x}.
  [[nodiscard]] double density(double x) const;

  /// Smallest x >= 0 with tail(x) <= epsilon (the epsilon-quantile of the
  /// delay, e.g. epsilon = 1e-5 for the paper's 99.999% quantiles).
  [[nodiscard]] double quantile(double epsilon) const;

  /// E[X] = F'(0) = sum of Re(c / theta).
  [[nodiscard]] double mean() const;

  /// F(0); equals 1 for a proper probability distribution.
  [[nodiscard]] double total_mass() const;

  // ---- structure -------------------------------------------------------

  [[nodiscard]] double constant_term() const noexcept { return constant_; }
  [[nodiscard]] const std::vector<PoleTerm>& terms() const noexcept {
    return terms_;
  }

  /// Pole with the smallest real part — the dominant (slowest-decaying)
  /// exponential mode of the tail. Throws if there are no poles.
  [[nodiscard]] Complex dominant_pole() const;

  /// Relative pole-distance threshold below which products are refused.
  static constexpr double kPoleClash = 1e-9;

 private:
  friend class GiEk1Solver;
  friend ErlangMixMgf multiply(const ErlangMixMgf& a, const ErlangMixMgf& b);

  /// Builder for pole sets whose producer has already separated them
  /// (pairwise relative distance > kPoleClash): checks the per-pole
  /// conditions only, in O(n) instead of the general builder's O(n^2).
  struct SeparatedPoles {};
  ErlangMixMgf(double constant, std::vector<PoleTerm> terms, SeparatedPoles);

  double constant_ = 1.0;
  std::vector<PoleTerm> terms_;
};

/// Product of two MGFs (sum of independent delays), re-expanded into the
/// same representation via Appendix-A partial fractions. The pole sets
/// must be disjoint. Each factor's poles are already separated, so only
/// the cross pairs are checked: O(|a| |b|), which is O(K) for the
/// one-pole upstream factor times the K-pole burst wait.
/// @throws std::invalid_argument when poles (nearly) collide.
[[nodiscard]] ErlangMixMgf multiply(const ErlangMixMgf& a,
                                    const ErlangMixMgf& b);

}  // namespace fpsq::queueing
