// fpsq::obs — bench-regression comparison engine behind the
// `fpsq benchdiff` subcommand: diffs two BENCH_*.json collections
// (schema v1 bare array or v2 object) metric by metric with
// noise-aware per-class thresholds.
//
// Metric classes:
//   * timing   — wall clocks, throughputs, speedups. Noisy by nature:
//     deltas beyond the loose relative tolerance WARN, never fail.
//   * accuracy — the reproduction numbers the paper's tables/figures
//     pin down. Deterministic (seeded sims + analytic solvers): deltas
//     beyond the tight tolerance FAIL.
//   * info     — environment facts (thread counts, cache tallies);
//     never compared.
// A bench present in the baseline but missing from the current run
// FAILS; a new bench or metric only warns (the baseline needs a
// refresh, the reproduction did not regress).
//
// Exit-code contract (used by CI):
//   0 clean · 3 timing/new-entry warnings only · 4 accuracy regression
// (the CLI reserves 1 for I/O or parse errors and 2 for usage errors).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace fpsq::obs {

enum class MetricClass { kTiming, kAccuracy, kInfo };

/// Classifies a metric key: `threads` and `cache_*` are info; a key
/// containing `diff` or `err` is accuracy (an error measured in seconds,
/// like `quantile_max_abs_diff_s`, is still an error); `wall_s`, `*_s`,
/// `*events_per_sec*` and `*speedup*` are timing; everything else is an
/// accuracy metric.
[[nodiscard]] MetricClass classify_metric(std::string_view key);

[[nodiscard]] const char* metric_class_name(MetricClass c);

struct BenchDiffOptions {
  /// Relative tolerance for timing-class metrics (warn above).
  double timing_rel_tol = 0.5;
  /// Absolute slack added to the timing tolerance. Sub-millisecond
  /// benches routinely double their wall time under scheduler noise; a
  /// purely relative gate would flag them on every run.
  double timing_abs_tol = 0.01;
  /// Relative tolerance for accuracy-class metrics (fail above).
  double accuracy_rel_tol = 1e-6;
  /// Absolute floor for accuracy comparisons near zero.
  double accuracy_abs_tol = 1e-9;
};

struct BenchDiffFinding {
  enum class Severity { kWarn, kFail };
  std::string bench;
  std::string metric;  ///< empty for bench-level findings
  MetricClass cls = MetricClass::kAccuracy;
  Severity severity = Severity::kFail;
  bool has_values = false;
  double baseline = 0.0;
  double current = 0.0;
  double rel_delta = 0.0;
  std::string note;
};

struct BenchDiffReport {
  std::vector<BenchDiffFinding> findings;  ///< non-clean rows only
  std::size_t benches_compared = 0;
  std::size_t metrics_compared = 0;
  std::size_t warnings = 0;
  std::size_t failures = 0;

  [[nodiscard]] bool failed() const { return failures > 0; }
  /// 0 = clean, 3 = warnings only, 4 = at least one failure.
  [[nodiscard]] int exit_code() const;
  /// "pass", "warn" or "fail".
  [[nodiscard]] const char* verdict() const;
  /// Human-readable markdown verdict (summary + findings table).
  [[nodiscard]] std::string to_markdown() const;
  /// Machine-readable verdict (schema fpsq.benchdiff.v1).
  [[nodiscard]] std::string to_json() const;
};

/// Diffs two parsed BENCH_*.json documents. Accepts the v1 schema (a
/// bare array of bench objects) and the v2 schema
/// (`{"schema":"fpsq.bench.v2","manifest":{...},"benches":[...]}`).
/// Throws std::runtime_error when a document has neither shape.
[[nodiscard]] BenchDiffReport diff_bench_collections(
    const json::Value& baseline, const json::Value& current,
    const BenchDiffOptions& options = {});

}  // namespace fpsq::obs
