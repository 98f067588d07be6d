#include "queueing/erlang_mix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "math/kahan.h"
#include "queueing/inversion.h"

namespace fpsq::queueing {

namespace {

void check_poles(const std::vector<ErlangMixMgf::PoleTerm>& terms) {
  for (const auto& t : terms) {
    if (!(t.theta.real() > 0.0)) {
      throw std::invalid_argument(
          "ErlangMixMgf: poles must have positive real part");
    }
    if (t.coeff.empty()) {
      throw std::invalid_argument("ErlangMixMgf: empty coefficient list");
    }
  }
}

void check_terms(const std::vector<ErlangMixMgf::PoleTerm>& terms) {
  check_poles(terms);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    for (std::size_t j = i + 1; j < terms.size(); ++j) {
      const double dist = std::abs(terms[i].theta - terms[j].theta);
      const double scale =
          std::max(std::abs(terms[i].theta), std::abs(terms[j].theta));
      if (dist <= ErlangMixMgf::kPoleClash * scale) {
        throw std::invalid_argument("ErlangMixMgf: duplicate pole");
      }
    }
  }
}

/// Rising factorial m (m+1) ... (m+n-1); 1 for n == 0.
double rising(int m, int n) {
  double r = 1.0;
  for (int i = 0; i < n; ++i) {
    r *= static_cast<double>(m + i);
  }
  return r;
}

}  // namespace

ErlangMixMgf::ErlangMixMgf() = default;

ErlangMixMgf::ErlangMixMgf(double constant, std::vector<PoleTerm> terms)
    : constant_(constant), terms_(std::move(terms)) {
  check_terms(terms_);
}

ErlangMixMgf::ErlangMixMgf(double constant, std::vector<PoleTerm> terms,
                           SeparatedPoles)
    : constant_(constant), terms_(std::move(terms)) {
  check_poles(terms_);
}

ErlangMixMgf ErlangMixMgf::atom_plus_exponential(double atom, Complex theta) {
  std::vector<PoleTerm> terms;
  terms.push_back({theta, {Complex{1.0 - atom, 0.0}}});
  return ErlangMixMgf{atom, std::move(terms)};
}

ErlangMixMgf ErlangMixMgf::erlang(int m, double theta) {
  if (m < 1 || !(theta > 0.0)) {
    throw std::invalid_argument("ErlangMixMgf::erlang: m >= 1, theta > 0");
  }
  std::vector<PoleTerm> terms(1);
  terms[0].theta = Complex{theta, 0.0};
  terms[0].coeff.assign(static_cast<std::size_t>(m), Complex{0.0, 0.0});
  terms[0].coeff.back() = Complex{1.0, 0.0};
  return ErlangMixMgf{0.0, std::move(terms)};
}

Complex ErlangMixMgf::value(Complex s) const {
  Complex acc{constant_, 0.0};
  for (const auto& t : terms_) {
    const Complex base = t.theta / (t.theta - s);
    Complex power = base;
    for (std::size_t m = 0; m < t.coeff.size(); ++m) {
      acc += t.coeff[m] * power;
      power *= base;
    }
  }
  return acc;
}

double ErlangMixMgf::value_real(double s) const {
  return value(Complex{s, 0.0}).real();
}

Complex ErlangMixMgf::derivative(int n, Complex s) const {
  if (n < 0) {
    throw std::invalid_argument("ErlangMixMgf::derivative: n >= 0");
  }
  if (n == 0) return value(s);
  Complex acc{0.0, 0.0};
  for (const auto& t : terms_) {
    for (std::size_t mi = 0; mi < t.coeff.size(); ++mi) {
      const int m = static_cast<int>(mi) + 1;
      // d^n/ds^n (theta - s)^{-m} = rising(m, n) (theta - s)^{-(m+n)}
      const Complex denom = std::pow(t.theta - s, m + n);
      acc += t.coeff[mi] * std::pow(t.theta, m) * rising(m, n) / denom;
    }
  }
  return acc;
}

double ErlangMixMgf::tail(double x) const {
  if (x <= 0.0) {
    return 1.0 - constant_;
  }
  // Compensated accumulation: near-clash pole sets (K = 20 at low load)
  // produce terms many orders larger than their sum; Re(sum) = sum(Re)
  // lets the real parts go straight into a Neumaier accumulator.
  math::KahanSum acc;
  for (const auto& t : terms_) {
    const Complex tx = t.theta * x;
    // Guard: with Re(theta x) this deep the whole term has underflowed.
    if (tx.real() > 745.0) continue;
    // term_l = e^{-theta x} (theta x)^l / l!, accumulated by recurrence so
    // magnitudes stay tame for the oscillatory (complex-pole) case.
    Complex term = std::exp(-tx);
    Complex partial = term;  // sum_{l<=0}
    // coeff[m-1] needs sum_{l<m}; walk m upward reusing the partial sum.
    for (std::size_t mi = 0; mi < t.coeff.size(); ++mi) {
      acc.add((t.coeff[mi] * partial).real());
      term *= tx / static_cast<double>(mi + 1);
      partial += term;
    }
  }
  return acc.value();
}

double ErlangMixMgf::density(double x) const {
  if (x <= 0.0) return 0.0;
  math::KahanSum acc;
  for (const auto& t : terms_) {
    const Complex tx = t.theta * x;
    if (tx.real() > 745.0) continue;
    // term_m = theta^m x^{m-1} e^{-theta x}/(m-1)!; built by recurrence.
    Complex term = t.theta * std::exp(-tx);
    for (std::size_t mi = 0; mi < t.coeff.size(); ++mi) {
      acc.add((t.coeff[mi] * term).real());
      term *= tx / static_cast<double>(mi + 1);
    }
  }
  return acc.value();
}

double ErlangMixMgf::quantile(double epsilon) const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("ErlangMixMgf::quantile: epsilon in (0,1)");
  }
  if (tail(0.0) <= epsilon) {
    return 0.0;
  }
  if (terms_.empty()) {
    // All mass at zero yet tail(0) > eps: inconsistent representation.
    throw std::logic_error("ErlangMixMgf::quantile: no poles but mass > 0");
  }
  // Safeguarded Newton with the analytic density as the derivative; the
  // initial bracket scale is set by the dominant (slowest) pole. Bracket
  // or Newton exhaustion surfaces as err::SolverFailure
  // (kNonConvergence), not a raw runtime_error.
  return invert_tail_newton([this](double x) { return tail(x); },
                            [this](double x) { return density(x); },
                            epsilon, 1.0 / dominant_pole().real(),
                            "queueing.erlang_mix");
}

double ErlangMixMgf::mean() const {
  return derivative(1, Complex{0.0, 0.0}).real();
}

double ErlangMixMgf::total_mass() const { return value_real(0.0); }

Complex ErlangMixMgf::dominant_pole() const {
  if (terms_.empty()) {
    throw std::logic_error("ErlangMixMgf::dominant_pole: no poles");
  }
  const auto it = std::min_element(
      terms_.begin(), terms_.end(), [](const PoleTerm& a, const PoleTerm& b) {
        return a.theta.real() < b.theta.real();
      });
  return it->theta;
}

ErlangMixMgf ErlangMixMgf::dominant_pole_approximation() const {
  const Complex dom = dominant_pole();
  std::vector<PoleTerm> kept;
  for (const auto& t : terms_) {
    // Keep the dominant pole and its conjugate partner (same real part).
    if (std::abs(t.theta.real() - dom.real()) <=
        kPoleClash * std::abs(dom.real()) + 1e-300) {
      kept.push_back(t);
    }
  }
  return ErlangMixMgf{constant_, std::move(kept)};
}

ErlangMixMgf multiply(const ErlangMixMgf& a, const ErlangMixMgf& b) {
  // Cross-factor pole disjointness.
  for (const auto& ta : a.terms()) {
    for (const auto& tb : b.terms()) {
      const double dist = std::abs(ta.theta - tb.theta);
      const double scale = std::max(std::abs(ta.theta), std::abs(tb.theta));
      if (dist <= ErlangMixMgf::kPoleClash * scale) {
        throw std::invalid_argument(
            "multiply(ErlangMixMgf): factors share a pole");
      }
    }
  }

  std::vector<ErlangMixMgf::PoleTerm> out_terms;
  // Principal part at each pole of one factor = its own principal part
  // convolved with the Taylor expansion of the *other* factor there
  // (Appendix A): with B(s) = sum_l b_l (s - theta)^l,
  //   new_coeff_q = sum_{m >= q} c_m (-1)^{m-q} b_{m-q} theta^{m-q}.
  const auto contribute = [&out_terms](const ErlangMixMgf::PoleTerm& t,
                                       const ErlangMixMgf& other) {
    const int big_m = static_cast<int>(t.coeff.size());
    // Taylor coefficients of the other factor at this pole.
    std::vector<Complex> b(static_cast<std::size_t>(big_m));
    double factorial = 1.0;
    for (int l = 0; l < big_m; ++l) {
      if (l > 0) factorial *= static_cast<double>(l);
      b[static_cast<std::size_t>(l)] =
          other.derivative(l, t.theta) / factorial;
    }
    ErlangMixMgf::PoleTerm nt;
    nt.theta = t.theta;
    nt.coeff.assign(t.coeff.size(), Complex{0.0, 0.0});
    for (int q = 1; q <= big_m; ++q) {
      Complex acc{0.0, 0.0};
      Complex sign_pow{1.0, 0.0};  // (-1)^{m-q} theta^{m-q}
      for (int m = q; m <= big_m; ++m) {
        acc += t.coeff[static_cast<std::size_t>(m - 1)] * sign_pow *
               b[static_cast<std::size_t>(m - q)];
        sign_pow *= -t.theta;
      }
      nt.coeff[static_cast<std::size_t>(q - 1)] = acc;
    }
    out_terms.push_back(std::move(nt));
  };

  for (const auto& t : a.terms()) contribute(t, b);
  for (const auto& t : b.terms()) contribute(t, a);

  // Poles within a factor were separated when it was built, and the
  // cross pairs were checked above.
  const double c0 = a.constant_term() * b.constant_term();
  return ErlangMixMgf{c0, std::move(out_terms),
                      ErlangMixMgf::SeparatedPoles{}};
}

}  // namespace fpsq::queueing
