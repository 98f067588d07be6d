// fpsq::err — structured error taxonomy for the solver and sweep stack.
//
// The transform-domain solvers (queueing::{GiEk1Solver, MG1,
// MD1}) can fail in a handful of well-understood ways: the zeta
// fixed-point search exhausts its budget, the offered load is at or
// above 1, MGF poles collide so the partial-fraction algebra refuses, or
// the Vandermonde weight system is too ill-conditioned to yield a valid
// atom. Historically every one of those threw through whatever stack was
// running — including the thread pool, which aborts a whole sweep for
// one bad cell.
//
// This header gives failures a value representation:
//   * SolverErrorCode / SolverError — the taxonomy plus context;
//   * Result<T> — value-or-error return for the solver factories
//     (GiEk1Solver::create and friends) and the batch drivers;
//   * SolverFailure / throw_solver_error — the bridge back to the
//     throwing API kept for compatibility (kBadParameters and kUnstable
//     map to std::invalid_argument exactly as the old constructors threw;
//     numeric failures throw SolverFailure, a std::runtime_error).
//
// Observability: record_failure() bumps `err.solver_failures` and
// `err.solver_failures.<code>`; a failed sweep point additionally counts
// `err.failed_cells`. See docs/ROBUSTNESS.md.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace fpsq::err {

enum class SolverErrorCode {
  kNone = 0,        ///< success sentinel for "error" fields in results
  kBadParameters,   ///< invalid inputs (k < 1, nonpositive times, ...)
  kUnstable,        ///< offered load rho >= 1
  kNonConvergence,  ///< iterative search exhausted its budget
  kPoleClash,       ///< MGF poles (nearly) collide; algebra refuses
  kIllConditioned,  ///< weight/atom solution numerically invalid
};

/// Stable snake_case name of a code ("non_convergence", ...).
[[nodiscard]] const char* code_name(SolverErrorCode code) noexcept;

/// Inverse of code_name (used by the FPSQ_FAULT_INJECT parser); empty
/// for unknown names. kNone is not nameable here.
[[nodiscard]] std::optional<SolverErrorCode> code_from_name(
    std::string_view name) noexcept;

struct SolverError {
  SolverErrorCode code = SolverErrorCode::kNone;
  /// "<site>: human-readable context", e.g.
  /// "queueing.dek1: zeta iteration did not converge".
  std::string detail;

  [[nodiscard]] std::string message() const;  ///< "<code_name>: <detail>"
};

/// Exception form of a numeric SolverError, thrown by the compatibility
/// constructors (and by Result::take_or_throw) so legacy catch sites
/// keep working while new ones can recover the structured error.
class SolverFailure : public std::runtime_error {
 public:
  explicit SolverFailure(SolverError e);
  [[nodiscard]] const SolverError& error() const noexcept { return error_; }

 private:
  SolverError error_;
};

/// Re-raises an error as the exception type the pre-Result API used:
/// kBadParameters / kUnstable -> std::invalid_argument (the constructors'
/// historical contract), everything else -> SolverFailure.
[[noreturn]] void throw_solver_error(const SolverError& e);

/// Counts the failure into the err.* metrics (total + per-code).
void record_failure(const SolverError& e);

/// Minimal value-or-error carrier for the solver factories. T must be
/// movable; Result itself is move-only when T is.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(SolverError e) : data_(std::move(e)) {}  // NOLINT(runtime/explicit)

  [[nodiscard]] static Result failure(SolverErrorCode code,
                                      std::string detail) {
    return Result{SolverError{code, std::move(detail)}};
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(data_);
  }
  explicit operator bool() const noexcept { return ok(); }

  /// Value access; throws (via throw_solver_error) when holding an error
  /// so misuse cannot silently read garbage.
  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(data_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(data_));
  }

  [[nodiscard]] const SolverError& error() const {
    return std::get<SolverError>(data_);
  }

  /// Moves the value out, or throws the mapped exception — the one-line
  /// bridge used by the compatibility wrappers.
  [[nodiscard]] T take_or_throw() && {
    require_ok();
    return std::get<T>(std::move(data_));
  }

 private:
  void require_ok() const {
    if (const auto* e = std::get_if<SolverError>(&data_)) {
      throw_solver_error(*e);
    }
  }

  std::variant<T, SolverError> data_;
};

}  // namespace fpsq::err
