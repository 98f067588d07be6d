// Shared helpers for the reproduction benches: each bench regenerates one
// table or figure of the paper and prints the measured values next to the
// published reference numbers.
//
// Besides the human-readable output, every bench emits one machine-
// readable line (schema fpsq.bench.v2) of the form
//     BENCHJSON {"schema":"fpsq.bench.v2","name":...,"wall_s":...,
//                "metrics":{...},"quantiles":{...},
//                "cache_hit_rate":{...},"manifest":{...}}
// via JsonReport; tools/collect_bench.sh greps these lines and
// aggregates them into BENCH_<date>.json, hoisting the (identical)
// per-bench manifests to one top-level object. `fpsq benchdiff`
// compares two such files (see docs/OBSERVABILITY.md).
//
// The solver-iteration quantiles and cache hit rates are pulled from
// the obs metrics registry at emit time; under -DFPSQ_NO_METRICS those
// objects are empty but the line stays schema-valid.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"

namespace fpsq::bench {

inline void header(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline void footnote(const char* text) { std::printf("  %s\n", text); }

/// Accumulates key result metrics and prints the BENCHJSON line when
/// destroyed (or on an explicit emit()). Wall time is measured from
/// construction.
class JsonReport {
 public:
  explicit JsonReport(std::string name)
      : name_(std::move(name)), start_(Clock::now()) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { emit(); }

  /// Records one named scalar (typically an error or headline value).
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Prints the BENCHJSON line; subsequent calls are no-ops.
  void emit() {
    if (emitted_) return;
    emitted_ = true;
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - start_).count();
    std::string line;
    line.reserve(1024);
    line += "BENCHJSON {\"schema\":\"fpsq.bench.v2\",\"name\":\"";
    obs::json::escape_to(line, name_);
    line += "\",\"wall_s\":";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6f", wall_s);
    line += buf;
    line += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) line += ",";
      line += "\"";
      obs::json::escape_to(line, metrics_[i].first);
      line += "\":";
      // NaN / inf are not valid JSON numbers; serialize them as null.
      if (std::isfinite(metrics_[i].second)) {
        std::snprintf(buf, sizeof buf, "%.10g", metrics_[i].second);
        line += buf;
      } else {
        line += "null";
      }
    }
    line += "},";
    append_registry_telemetry(line);
    // The manifest reports the pool the bench ran on (FPSQ_THREADS or a
    // set_global_thread_count), as the CLI's manifests do.
    obs::RunManifest& manifest = obs::RunManifest::current();
    manifest.threads = par::global_thread_count();
    line += "\"manifest\":";
    line += manifest.to_json();
    line += "}";
    std::printf("%s\n", line.c_str());
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Solver-iteration quantiles and per-family cache hit rates from the
  /// global metrics registry (empty objects under FPSQ_NO_METRICS,
  /// where the recording macros compile out).
  static void append_registry_telemetry(std::string& line) {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    line += "\"quantiles\":{";
    bool first = true;
    for (const auto& h : snap.histograms) {
      const bool iterations =
          h.name.size() > 11 &&
          h.name.compare(h.name.size() - 11, 11, ".iterations") == 0;
      if (!iterations || h.count == 0) continue;
      if (!first) line += ",";
      first = false;
      line += "\"";
      obs::json::escape_to(line, h.name);
      line += "\":{\"count\":" + std::to_string(h.count);
      for (const auto& [label, q] :
           {std::pair<const char*, double>{"p50", 0.50},
            {"p90", 0.90},
            {"p99", 0.99}}) {
        line += ",\"";
        line += label;
        line += "\":";
        obs::json::number_to(line, h.quantile(q));
      }
      line += "}";
    }
    line += "},\"cache_hit_rate\":{";
    first = true;
    for (const char* family : {"dek1", "giek1"}) {
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      const std::string prefix = std::string("queueing.cache.") + family;
      for (const auto& c : snap.counters) {
        if (c.name == prefix + ".hits") hits = c.value;
        if (c.name == prefix + ".misses") misses = c.value;
      }
      if (hits + misses == 0) continue;
      if (!first) line += ",";
      first = false;
      line += "\"";
      line += family;
      line += "\":";
      obs::json::number_to(line, static_cast<double>(hits) /
                                     static_cast<double>(hits + misses));
    }
    line += "},";
  }

  std::string name_;
  Clock::time_point start_;
  std::vector<std::pair<std::string, double>> metrics_;
  bool emitted_ = false;
};

}  // namespace fpsq::bench
