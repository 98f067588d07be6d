#include "queueing/erlang_mix.h"

#include <algorithm>
#include <cmath>
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
  return ErlangMixMgf{atom, {{theta, Complex{1.0 - atom, 0.0}}}};
}

Complex ErlangMixMgf::value(Complex s) const {
  Complex acc{constant_, 0.0};
  for (const auto& t : terms_) {
    acc += t.coeff * (t.theta / (t.theta - s));
  }
  return acc;
}

double ErlangMixMgf::value_real(double s) const {
  return value(Complex{s, 0.0}).real();
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
    acc.add((t.coeff * std::exp(-tx)).real());
  }
  return acc.value();
}

double ErlangMixMgf::density(double x) const {
  if (x <= 0.0) return 0.0;
  math::KahanSum acc;
  for (const auto& t : terms_) {
    const Complex tx = t.theta * x;
    if (tx.real() > 745.0) continue;
    acc.add((t.coeff * (t.theta * std::exp(-tx))).real());
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
  double acc = 0.0;
  for (const auto& t : terms_) acc += (t.coeff / t.theta).real();
  return acc;
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

  // Appendix A for simple poles: the coefficient at a pole theta of one
  // factor is its own coefficient times the other factor's value there.
  std::vector<ErlangMixMgf::PoleTerm> out_terms;
  out_terms.reserve(a.terms().size() + b.terms().size());
  for (const auto& t : a.terms()) {
    out_terms.push_back({t.theta, t.coeff * b.value(t.theta)});
  }
  for (const auto& t : b.terms()) {
    out_terms.push_back({t.theta, t.coeff * a.value(t.theta)});
  }

  // Poles within a factor were separated when it was built, and the
  // cross pairs were checked above.
  const double c0 = a.constant_term() * b.constant_term();
  return ErlangMixMgf{c0, std::move(out_terms),
                      ErlangMixMgf::SeparatedPoles{}};
}

}  // namespace fpsq::queueing
