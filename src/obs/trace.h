// fpsq::obs — scoped tracing spans with a fixed-capacity ring-buffer
// recorder and Chrome `trace_event` JSON export (load the file at
// chrome://tracing or https://ui.perfetto.dev).
//
// Usage:
//     void GiEk1Solver::solve() {
//       FPSQ_SPAN("dek1.pole_search");
//       ...
//     }
//
// Recording is off by default (a span then costs one branch); the CLI
// enables it when --trace-out is passed. The ring buffer overwrites its
// oldest entries when full, so long runs keep the most recent window.
// Under -DFPSQ_NO_METRICS the FPSQ_SPAN macro compiles away entirely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fpsq::obs {

/// One completed span. Times are nanoseconds since the recorder epoch
/// (construction or last reset).
struct TraceEvent {
  const char* name = nullptr;  ///< static string (span label)
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;  ///< nesting depth at the span's open
  std::uint32_t tid = 0;    ///< small per-thread ordinal
};

class TraceRecorder {
 public:
  /// Leaked singleton (same shutdown rationale as MetricsRegistry).
  static TraceRecorder& global();

  /// A private recorder (tests); spans always record into global().
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Ring size a first set_enabled(true) allocates (2 MiB of events).
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  [[nodiscard]] bool enabled() const noexcept;
  /// Enabling allocates the default ring unless one exists already.
  void set_enabled(bool on);

  /// Resizes the ring buffer (rounded up to a power of two, >= 16) and
  /// clears it. Not safe concurrently with recording.
  void set_capacity(std::size_t n);
  /// Ring size; 0 until the recorder is first enabled or sized.
  [[nodiscard]] std::size_t capacity() const noexcept;

  /// Records a completed span (no-op while disabled).
  void record(const TraceEvent& ev) noexcept;

  /// Total spans offered since the last reset (>= snapshot().size()).
  [[nodiscard]] std::uint64_t recorded_total() const noexcept;

  /// Copies out the retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Serializes the retained events as Chrome trace JSON.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Drops all events and restarts the epoch. Keeps enabled/capacity.
  void reset();

  /// Nanoseconds since the recorder epoch (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

 private:
  struct Impl;
  Impl* impl_;
};

/// RAII span: measures from construction to destruction and records into
/// the global TraceRecorder. When the recorder is disabled at
/// construction time the span is inert.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;  // nullptr when inert
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

/// Writes `chrome_trace_json()` of the global recorder to `path`.
/// Returns false on I/O failure.
bool write_trace_json(const std::string& path);

}  // namespace fpsq::obs

#ifndef FPSQ_NO_METRICS
#define FPSQ_OBS_CONCAT2(a, b) a##b
#define FPSQ_OBS_CONCAT(a, b) FPSQ_OBS_CONCAT2(a, b)
#define FPSQ_SPAN(name) \
  ::fpsq::obs::Span FPSQ_OBS_CONCAT(fpsq_obs_span_, __LINE__)(name)
#else
#define FPSQ_SPAN(name) ((void)0)
#endif
