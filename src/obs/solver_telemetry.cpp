#include "obs/solver_telemetry.h"

#include <vector>

#include "obs/metrics.h"

namespace fpsq::obs {

namespace {

thread_local const char* t_site = nullptr;

#ifndef FPSQ_NO_METRICS

/// The registry handles of one (site, algorithm) pair. Each handle is
/// resolved on its pair's first event of that kind, so a snapshot lists
/// exactly the events that happened (a `failures` counter only once a
/// solve failed).
struct SiteHandles {
  const char* site = nullptr;
  const char* algorithm = nullptr;  ///< nullptr for pole diagnostics
  Counter calls, failures, bracket_errors;
  Histogram iterations, residual, min_pole_separation;
  unsigned resolved = 0;  ///< bit i set once the i-th handle is resolved
};

std::string metric_name(const SiteHandles& h, const char* event) {
  std::string name = h.site;
  if (h.algorithm != nullptr) {
    name += '.';
    name += h.algorithm;
  }
  name += '.';
  name += event;
  return name;
}

/// This thread's handles for (site, algorithm), keyed by the two
/// literals' addresses: a linear scan over the few dozen pairs a process
/// uses, with no lock and no string work after the first event.
SiteHandles& handles(const char* site, const char* algorithm) {
  thread_local std::vector<SiteHandles> table;
  for (SiteHandles& h : table) {
    if (h.site == site && h.algorithm == algorithm) return h;
  }
  SiteHandles& h = table.emplace_back();
  h.site = site;
  h.algorithm = algorithm;
  return h;
}

const Counter& resolve(SiteHandles& h, Counter& c, unsigned bit,
                       const char* event) {
  if ((h.resolved & bit) == 0) {
    c = MetricsRegistry::global().counter(metric_name(h, event));
    h.resolved |= bit;
  }
  return c;
}

const Histogram& resolve(SiteHandles& h, Histogram& hist, unsigned bit,
                         const char* event) {
  if ((h.resolved & bit) == 0) {
    hist = MetricsRegistry::global().histogram(metric_name(h, event));
    h.resolved |= bit;
  }
  return hist;
}

#endif  // FPSQ_NO_METRICS

}  // namespace

ScopedSolverContext::ScopedSolverContext(const char* site) noexcept
    : prev_(t_site) {
  t_site = site;
}

ScopedSolverContext::~ScopedSolverContext() { t_site = prev_; }

const char* ScopedSolverContext::current() noexcept {
  return t_site != nullptr ? t_site : "math";
}

#ifndef FPSQ_NO_METRICS

void record_solver_call(const char* algorithm, int iterations,
                        bool converged) {
  SiteHandles& h = handles(ScopedSolverContext::current(), algorithm);
  resolve(h, h.calls, 1u, "calls").add();
  resolve(h, h.iterations, 2u, "iterations")
      .record(static_cast<double>(iterations));
  if (!converged) resolve(h, h.failures, 4u, "failures").add();
}

void record_solver_residual(const char* algorithm, double residual) {
  SiteHandles& h = handles(ScopedSolverContext::current(), algorithm);
  resolve(h, h.residual, 8u, "residual").record(residual);
}

void record_bracket_error(const char* algorithm) {
  SiteHandles& h = handles(ScopedSolverContext::current(), algorithm);
  resolve(h, h.bracket_errors, 16u, "bracket_errors").add();
}

void record_pole_diagnostics(const char* solver, double min_separation) {
  SiteHandles& h = handles(solver, nullptr);
  resolve(h, h.min_pole_separation, 32u, "min_pole_separation")
      .record(min_separation);
}

namespace detail {
void record_unconverged(const char* what, int iterations) {
  auto& reg = MetricsRegistry::global();
  reg.add_counter("solver.unconverged");
  reg.add_counter(std::string(what) + ".unconverged");
  reg.record_histogram("solver.unconverged.iterations",
                       static_cast<double>(iterations));
}
}  // namespace detail

#endif  // FPSQ_NO_METRICS

}  // namespace fpsq::obs
