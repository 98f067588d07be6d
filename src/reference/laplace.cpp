#include "reference/laplace.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace fpsq::math {

double invert_laplace_euler(const LaplaceFn& f_hat, double t, int m) {
  if (!(t > 0.0)) {
    throw std::invalid_argument("invert_laplace_euler: t must be > 0");
  }
  if (m < 1 || m > 60) {
    throw std::invalid_argument("invert_laplace_euler: m in [1, 60]");
  }
  // Abate & Whitt (1995): f(t) ~ Euler average of the partial sums of the
  // alternating Bromwich series with A = discretization parameter.
  const double a = 18.4;  // ~1e-8 discretization error
  const int n = 15;       // plain terms before Euler averaging

  // Re u fixed at a/(2t); the imaginary part walks the Bromwich line.
  auto series_term = [&](int k) {
    const std::complex<double> u{a / (2.0 * t), M_PI * k / t};
    return (k % 2 == 0 ? 1.0 : -1.0) * f_hat(u).real();
  };

  // s_n = first partial sums.
  double sum = 0.5 * f_hat(std::complex<double>{a / (2.0 * t), 0.0}).real();
  for (int k = 1; k <= n; ++k) {
    sum += series_term(k);
  }
  // Euler-average the next m partial sums with binomial weights.
  std::vector<double> partial(static_cast<std::size_t>(m) + 1);
  partial[0] = sum;
  for (int j = 1; j <= m; ++j) {
    partial[static_cast<std::size_t>(j)] =
        partial[static_cast<std::size_t>(j - 1)] + series_term(n + j);
  }
  double euler = 0.0;
  double binom = 1.0;  // C(m, 0)
  double total_weight = std::pow(2.0, m);
  for (int j = 0; j <= m; ++j) {
    euler += binom * partial[static_cast<std::size_t>(j)];
    binom *= static_cast<double>(m - j) / static_cast<double>(j + 1);
  }
  return std::exp(a / 2.0) / t * euler / total_weight;
}

double tail_from_mgf(
    const std::function<std::complex<double>(std::complex<double>)>& mgf,
    double x, int m) {
  auto t_hat = [&mgf](std::complex<double> u) {
    return (std::complex<double>{1.0, 0.0} - mgf(-u)) / u;
  };
  return invert_laplace_euler(t_hat, x, m);
}

}  // namespace fpsq::math
