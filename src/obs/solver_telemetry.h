// fpsq::obs — convergence telemetry for the numeric solvers.
//
// The math layer (roots, minimize, fixed_point, lambert_w) and the
// queueing layer's own pole searches call the record_* helpers on every
// solve; the queueing layer labels those calls with a
// ScopedSolverContext so the metrics are attributed to the *call site*
// rather than the algorithm alone:
//
//     obs::ScopedSolverContext ctx("queueing.giek1");
//     auto r = math::solve_fixed_point(...);   // records
//         // queueing.giek1.fixed_point.{calls,iterations,failures,...}
//
// Per call-site metrics emitted (all names `<site>.<algorithm>.<event>`,
// each resolved to a registry handle once per thread, so an event costs
// one relaxed store into the thread's shard):
//     .calls           counter   one per invocation
//     .iterations      histogram iterations consumed
//     .failures        counter   returned with converged == false
//     .bracket_errors  counter   bracket/sign-change preconditions failed
//     .residual        histogram final residual (where the solver has one)
//
// `site` and `algorithm` must be string literals (or otherwise outlive
// the process): handles are cached by their addresses.
//
// Everything here is a no-op under -DFPSQ_NO_METRICS (except
// require_converged, which still throws — convergence escalation is
// error handling, not instrumentation).
#pragma once

#include <stdexcept>
#include <string>

namespace fpsq::obs {

/// Thread-local call-site label; nests (restores the previous label on
/// destruction). Unlabeled solver calls record under "math".
class ScopedSolverContext {
 public:
  explicit ScopedSolverContext(const char* site) noexcept;
  ~ScopedSolverContext();
  ScopedSolverContext(const ScopedSolverContext&) = delete;
  ScopedSolverContext& operator=(const ScopedSolverContext&) = delete;

  /// The innermost active label ("math" when none is set).
  [[nodiscard]] static const char* current() noexcept;

 private:
  const char* prev_;
};

#ifndef FPSQ_NO_METRICS

/// One solver invocation: iteration count plus converged flag.
void record_solver_call(const char* algorithm, int iterations,
                        bool converged);

/// Final residual of a solve (recorded into `<site>.<algo>.residual`).
void record_solver_residual(const char* algorithm, double residual);

/// A bracket / sign-change precondition failure (about to throw).
void record_bracket_error(const char* algorithm);

/// Pole-search diagnostics for a transform solver: the minimum relative
/// pole separation, recorded into `<solver>.min_pole_separation`.
void record_pole_diagnostics(const char* solver, double min_separation);

#else

inline void record_solver_call(const char*, int, bool) {}
inline void record_solver_residual(const char*, double) {}
inline void record_bracket_error(const char*) {}
inline void record_pole_diagnostics(const char*, double) {}

#endif  // FPSQ_NO_METRICS

/// Escalates a solver result that callers previously ignored: records a
/// `<site>.unconverged` event and throws, instead of letting an
/// unconverged value silently flow into quantiles. Works for any result
/// type with `converged` and `iterations` members (math::RootResult,
/// math::MinResult, math::ComplexRootResult).
#ifndef FPSQ_NO_METRICS
namespace detail {
void record_unconverged(const char* what, int iterations);
}  // namespace detail
#else
namespace detail {
inline void record_unconverged(const char*, int) {}
}  // namespace detail
#endif

template <typename Result>
const Result& require_converged(const Result& r, const char* what) {
  if (!r.converged) {
    detail::record_unconverged(what, r.iterations);
    throw std::runtime_error(std::string(what) +
                             ": solver did not converge after " +
                             std::to_string(r.iterations) + " iterations");
  }
  return r;
}

}  // namespace fpsq::obs
