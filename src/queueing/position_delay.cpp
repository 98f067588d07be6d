#include "queueing/position_delay.h"

#include <cmath>
#include <stdexcept>

#include "math/special.h"
#include "queueing/inversion.h"

namespace fpsq::queueing {

ErlangMixture::ErlangMixture(double beta, std::vector<double> weights)
    : beta_(beta), weights_(std::move(weights)) {
  if (!(beta > 0.0) || weights_.empty()) {
    throw std::invalid_argument("ErlangMixture: beta > 0 and weights");
  }
  double sum = 0.0;
  for (double w : weights_) {
    if (w < 0.0) {
      throw std::invalid_argument("ErlangMixture: negative weight");
    }
    sum += w;
  }
  if (std::abs(sum - 1.0) > 1e-12) {
    throw std::invalid_argument("ErlangMixture: weights must sum to 1");
  }
}

double ErlangMixture::tail(double x) const {
  if (x <= 0.0) return 1.0;
  const double bx = beta_ * x;
  if (bx > 745.0) {
    // Deep tail: fall back to log-space via the largest component.
    double acc = 0.0;
    for (std::size_t j = 0; j < weights_.size(); ++j) {
      if (weights_[j] > 0.0) {
        acc += weights_[j] *
               math::gamma_q(static_cast<double>(j) + 1.0, bx);
      }
    }
    return acc;
  }
  // One pass: tail of Erlang(j) = e^{-bx} sum_{l<j} (bx)^l / l!.
  double term = std::exp(-bx);
  double partial = term;
  double acc = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    acc += weights_[j] * partial;
    term *= bx / static_cast<double>(j + 1);
    partial += term;
  }
  return acc;
}

double ErlangMixture::density(double x) const {
  if (x <= 0.0) return 0.0;
  const double bx = beta_ * x;
  if (bx > 745.0) return 0.0;
  double term = beta_ * std::exp(-bx);  // Erlang(1) density
  double acc = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    acc += weights_[j] * term;
    term *= bx / static_cast<double>(j + 1);
  }
  return acc;
}

double ErlangMixture::mean() const {
  double acc = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    acc += weights_[j] * static_cast<double>(j + 1);
  }
  return acc / beta_;
}

Complex ErlangMixture::mgf(Complex s) const {
  const Complex base = beta_ / (Complex{beta_, 0.0} - s);
  Complex power = base;
  Complex acc{0.0, 0.0};
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    acc += weights_[j] * power;
    power *= base;
  }
  return acc;
}

double ErlangMixture::quantile(double epsilon) const {
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("ErlangMixture::quantile: epsilon in (0,1)");
  }
  // Newton on the positive-term tail with the mixture density as the
  // derivative; failures surface as err::SolverFailure.
  return invert_tail_newton(
      [this](double x) { return tail(x); },
      [this](double x) { return density(x); }, epsilon,
      static_cast<double>(weights_.size()) / beta_,
      "queueing.position_delay");
}

ErlangMixture position_delay_fixed(int k, double beta, double theta) {
  if (k < 1 || !(beta > 0.0)) {
    throw std::invalid_argument("position_delay_fixed: k >= 1, beta > 0");
  }
  if (!(theta > 0.0 && theta <= 1.0)) {
    throw std::invalid_argument("position_delay_fixed: theta in (0, 1]");
  }
  std::vector<double> w(static_cast<std::size_t>(k), 0.0);
  w.back() = 1.0;
  return ErlangMixture{beta / theta, std::move(w)};
}

ErlangMixture position_delay_uniform_mixture(int k, double beta) {
  if (k < 2 || !(beta > 0.0)) {
    throw std::invalid_argument(
        "position_delay_uniform_mixture: k >= 2, beta > 0");
  }
  std::vector<double> w(static_cast<std::size_t>(k - 1),
                        1.0 / static_cast<double>(k - 1));
  return ErlangMixture{beta, std::move(w)};
}

}  // namespace fpsq::queueing
