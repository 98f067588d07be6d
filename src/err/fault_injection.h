// fpsq::err — deterministic fault injection, so every degradation path
// of the robustness layer is testable without hunting for pathological
// parameters.
//
// A fault is (site, code, tag range). Sites are the solver call sites
// that consult fault_check() from their create() factories:
//
//     queueing.dek1    tag = rho (b / T); GiEk1Solver on deterministic ticks
//     queueing.giek1   tag = rho (b / E[A]); GiEk1Solver on any other law
//     queueing.mg1     tag = rho (lambda * d; shared by MD1)
//
// When a fault is armed for a site and the tag falls inside [lo, hi],
// the factory fails with the configured code *before* solving — a pure
// function of (site, parameters), so injected failures land on the same
// cells at any thread count and in any evaluation order.
//
// Configuration:
//   * environment (read once, lazily):
//       FPSQ_FAULT_INJECT="queueing.dek1=non_convergence"
//       FPSQ_FAULT_INJECT="queueing.dek1=unstable:0.4-0.6,queueing.mg1=pole_clash"
//     codes: non_convergence | unstable | pole_clash | ill_conditioned
//            | bad_parameters; the optional ":lo-hi" suffix limits the
//     fault to tags in [lo, hi].
//   * programmatic (tests): inject_fault() / clear_faults().
//
// Each fired fault counts into the `err.injected_faults` metric.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "err/error.h"

namespace fpsq::err {

struct FaultSpec {
  SolverErrorCode code = SolverErrorCode::kNone;
  double lo = 0.0;  ///< inclusive tag range; defaults cover every tag
  double hi = 0.0;
};

/// Arms a fault for `site` (replacing any previous fault there).
void inject_fault(std::string site, SolverErrorCode code,
                  double lo = -1e300, double hi = 1e300);

/// Disarms every fault, including any parsed from FPSQ_FAULT_INJECT
/// (the environment is not re-read afterwards).
void clear_faults();

/// Consulted by the solver factories: the armed error for (site, tag),
/// or nullopt. Fires the err.injected_faults counter on a hit.
[[nodiscard]] std::optional<SolverError> fault_check(const char* site,
                                                     double tag);

/// Parses a FPSQ_FAULT_INJECT-style spec string. Exposed for tests;
/// malformed entries are skipped.
[[nodiscard]] std::vector<std::pair<std::string, FaultSpec>>
parse_fault_spec(std::string_view spec);

}  // namespace fpsq::err
