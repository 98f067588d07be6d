// A2 — the Section-3.1 Poisson limit (eq. 11): as the number of periodic
// sources N grows at constant load, the N*D/D/1 delay quantiles converge
// to the M/D/1 quantiles. Compares the Benes dominant-term estimate, the
// binomial Chernoff estimate (eq. 10), the Poisson Chernoff estimate
// (eq. 12) and the exact M/D/1 distribution.
#include <cstdio>

#include "bench_util.h"
#include "queueing/mg1.h"
#include "reference/ndd1.h"

int main() {
  using namespace fpsq;
  using namespace fpsq::queueing;
  bench::header("Ablation A2",
                "N*D/D/1 -> M/D/1 convergence at rho = 0.7 (1e-4 "
                "quantiles of the waiting time, packet service = 1)");
  bench::JsonReport jr{"ablation_poisson_limit"};

  const double rho = 0.7;
  const double d = 1.0;
  const MD1 md1{rho, d};
  const double md1_q = md1.wait_quantile_exact(1e-4);

  std::printf("%8s %12s %14s %14s %12s\n", "N", "Benes", "Chernoff(10)",
              "Poisson(12)", "M/D/1");
  double benes_512 = 0.0;
  for (int n : {8, 16, 32, 64, 128, 256, 512}) {
    const NDD1Params q{n, n * d / rho, d};
    const double benes = ndd1_quantile(q, 1e-4, NDD1Method::kBenes);
    if (n == 512) benes_512 = benes;
    std::printf("%8d %12.3f %14.3f %14.3f %12.3f\n", n, benes,
                ndd1_quantile(q, 1e-4, NDD1Method::kChernoff),
                ndd1_quantile(q, 1e-4, NDD1Method::kPoisson), md1_q);
  }
  jr.metric("md1_q", md1_q);
  jr.metric("benes_q_n512", benes_512);
  jr.metric("benes_n512_gap_vs_md1", md1_q - benes_512);
  bench::footnote(
      "Periodic sources are 'smoother' than Poisson: quantiles grow with"
      " N toward the M/D/1 limit from below, the convergence the paper"
      " invokes to justify the M/G/1 upstream model. The two Chernoff"
      " columns bound their exact counterparts, approaching each other as"
      " the binomial window converges to Poisson.");
  return 0;
}
