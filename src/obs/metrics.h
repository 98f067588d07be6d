// fpsq::obs — zero-dependency metrics: named counters, gauges and
// fixed-bucket histograms behind a process-global registry.
//
// Design constraints (the hot paths live inside root finders and the
// event kernel):
//   * recording is lock-free: counters and histograms write to
//     thread-local shards (relaxed atomics, single writer per cell) that
//     are merged when a snapshot is taken; gauges are single global
//     atomics;
//   * handles are cheap value types; the FPSQ_* macros cache the
//     name->id resolution in a function-local static, so steady-state
//     cost is one indexed store;
//   * everything compiles out under -DFPSQ_NO_METRICS: the macros become
//     no-ops and the instrumentation helpers empty inline functions. The
//     registry API itself stays available (the CLI still accepts
//     --metrics-out and writes an empty, schema-valid file).
//
// Metric names follow `subsystem.object.event`, e.g.
// `queueing.dek1.lambert_w.iterations` (see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fpsq::obs {

class MetricsRegistry;

/// Handle to a named monotonic counter.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const noexcept;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Handle to a named gauge (last-write-wins double, plus a CAS max).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const noexcept;
  /// Monotone update: keeps the largest value ever offered (high-water).
  void set_max(double v) const noexcept;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Handle to a named fixed-bucket histogram on a log-linear grid: 36
/// decades spanning [1e-18, 1e18), each split into 9 linear sub-buckets
/// ([m·10^e, (m+1)·10^e) for m = 1..9), plus an underflow and an
/// overflow bucket. One grid serves iteration counts, residuals and
/// latencies alike, and the sub-decade resolution bounds the relative
/// error of interpolated quantiles by one sub-bucket width (< 50%,
/// typically ~11%; see MetricsSnapshot::HistogramValue::quantile).
class Histogram {
 public:
  Histogram() = default;
  void record(double v) const noexcept;

  static constexpr int kDecades = 36;      ///< [1e-18, 1e18)
  static constexpr int kSubBuckets = 9;    ///< linear within a decade
  static constexpr int kBuckets = kDecades * kSubBuckets + 2;
  /// Inclusive lower bound of bucket `i` (0 for the underflow bucket).
  [[nodiscard]] static double bucket_lower_bound(int i);
  /// Exclusive upper bound of bucket `i` (+inf for the overflow bucket).
  [[nodiscard]] static double bucket_upper_bound(int i);
  /// Bucket index for a value.
  [[nodiscard]] static int bucket_index(double v) noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Point-in-time merged view of every registered metric.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
    bool ever_set = false;
  };
  struct HistogramValue {
    struct Bucket {
      double lower = 0.0;          ///< inclusive
      double upper = 0.0;          ///< exclusive (+inf for overflow)
      std::uint64_t count = 0;
    };
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0
    double max = 0.0;  ///< meaningful only when count > 0
    /// Non-empty buckets, ascending by lower bound.
    std::vector<Bucket> buckets;
    [[nodiscard]] double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    /// Interpolated quantile estimate (q in [0, 1]): linear within the
    /// bucket containing the target rank, clamped to [min, max]. The
    /// estimate is exact at q = 0 / q = 1 and off by at most one
    /// sub-decade bucket width elsewhere. Returns NaN when empty
    /// (serialized as JSON null).
    [[nodiscard]] double quantile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Serializes the snapshot as a stable-schema JSON document
  /// (fpsq.metrics.v2): the run manifest, then counters, gauges and
  /// histograms (with interpolated p50/p90/p99 per histogram).
  [[nodiscard]] std::string to_json() const;
};

/// The process-global registry. Metric creation (name -> id) takes a
/// mutex; recording through handles does not.
class MetricsRegistry {
 public:
  /// The singleton is intentionally leaked: thread-local shards may be
  /// flushed from thread destructors at any point during shutdown.
  static MetricsRegistry& global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns `name` and returns a handle; repeated calls with the same
  /// name return handles to the same metric. A name registered with a
  /// different kind throws std::invalid_argument.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Dynamic-name conveniences (one hash lookup per call).
  void add_counter(std::string_view name, std::uint64_t n = 1);
  void set_gauge(std::string_view name, double v);
  void max_gauge(std::string_view name, double v);
  void record_histogram(std::string_view name, double v);

  /// Merges all thread shards into a consistent view.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every value (names stay registered). Intended for tests.
  void reset();

  /// Number of distinct registered metrics.
  [[nodiscard]] std::size_t metric_count() const;

  struct Impl;  // public so the .cpp's thread-shard helpers can name it

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  MetricsRegistry();
  ~MetricsRegistry();

  void counter_add(std::uint32_t id, std::uint64_t n) noexcept;
  void gauge_set(std::uint32_t id, double v) noexcept;
  void gauge_max(std::uint32_t id, double v) noexcept;
  void histogram_record(std::uint32_t id, double v) noexcept;

  Impl* impl_;
};

/// Writes `snapshot.to_json()` (plus a trailing newline) to `path`.
/// Returns false on I/O failure.
bool write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot);

/// Renders a human-readable summary table (markdown-compatible) of the
/// snapshot: counters, gauges, then histograms with count/mean/max.
[[nodiscard]] std::string render_summary(const MetricsSnapshot& snapshot);

/// Registers the canonical simulator / solver metric names so exported
/// snapshots keep a stable schema even for purely analytic runs.
void ensure_baseline_schema();

}  // namespace fpsq::obs

// ---- recording macros ----------------------------------------------------
// `name` must be a string literal (the handle is cached in a static).
#ifndef FPSQ_NO_METRICS
#define FPSQ_OBS_COUNT_N(name, n)                                       \
  do {                                                                  \
    static const ::fpsq::obs::Counter fpsq_obs_c =                      \
        ::fpsq::obs::MetricsRegistry::global().counter(name);           \
    fpsq_obs_c.add(n);                                                  \
  } while (0)
#define FPSQ_OBS_COUNT(name) FPSQ_OBS_COUNT_N(name, 1)
#define FPSQ_OBS_GAUGE_SET(name, v)                                     \
  do {                                                                  \
    static const ::fpsq::obs::Gauge fpsq_obs_g =                        \
        ::fpsq::obs::MetricsRegistry::global().gauge(name);             \
    fpsq_obs_g.set(v);                                                  \
  } while (0)
#define FPSQ_OBS_GAUGE_MAX(name, v)                                     \
  do {                                                                  \
    static const ::fpsq::obs::Gauge fpsq_obs_g =                        \
        ::fpsq::obs::MetricsRegistry::global().gauge(name);             \
    fpsq_obs_g.set_max(v);                                              \
  } while (0)
#define FPSQ_OBS_HIST(name, v)                                          \
  do {                                                                  \
    static const ::fpsq::obs::Histogram fpsq_obs_h =                    \
        ::fpsq::obs::MetricsRegistry::global().histogram(name);         \
    fpsq_obs_h.record(v);                                               \
  } while (0)
#else
// Disabled: evaluate the value expression (side-effect parity, silences
// unused-variable warnings) but touch no registry state.
#define FPSQ_OBS_COUNT_N(name, n) ((void)(n))
#define FPSQ_OBS_COUNT(name) ((void)0)
#define FPSQ_OBS_GAUGE_SET(name, v) ((void)(v))
#define FPSQ_OBS_GAUGE_MAX(name, v) ((void)(v))
#define FPSQ_OBS_HIST(name, v) ((void)(v))
#endif
