#include "obs/timeline.h"

#include <pthread.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <utility>

#include "obs/json.h"
#include "obs/manifest.h"

namespace fpsq::obs {

TimelineSampler::~TimelineSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool TimelineSampler::start(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_ || finalized_ || !(options.interval_ms > 0.0)) {
    return false;
  }
  options_ = options;
  // Clamp tiny positive intervals: below kMinIntervalMs the sampler
  // would degenerate into a hot spin on the registry mutex.
  if (options_.interval_ms < kMinIntervalMs) {
    options_.interval_ms = kMinIntervalMs;
  }
  samples_.clear();
  started_at_ = std::chrono::steady_clock::now();
  stop_requested_ = false;
  running_ = true;
#ifndef FPSQ_NO_METRICS
  thread_ = std::thread([this] { sampling_loop(); });
#endif
  return true;
}

void TimelineSampler::sampling_loop() {
  // SIGTERM / SIGINT belong to the thread that owns the process's loop
  // (fpsq serve's drain reads its flag there), never the sampler.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.interval_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      return;  // final sample is appended by stop_and_write()
    }
    append_sample_locked();
  }
}

TimelineSampler::Sample TimelineSampler::take_sample_locked() const {
  // snapshot() takes the registry mutex, not ours; recording threads
  // stay lock-free throughout.
  Sample s;
  s.t_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at_)
              .count();
  s.snapshot = MetricsRegistry::global().snapshot();
  return s;
}

void TimelineSampler::append_sample_locked() {
  samples_.push_back(take_sample_locked());
}

bool TimelineSampler::stop_and_write() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_) return true;
    if (!running_) return false;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::string body;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The forced final sample. When the run ended right on an interval
    // boundary the periodic loop just sampled; emitting both would put
    // two near-identical entries at the tail of the series, so a last
    // periodic sample younger than half an interval is replaced instead.
    Sample final_sample = take_sample_locked();
    const double half_interval_s = 0.5 * options_.interval_ms * 1e-3;
    if (!samples_.empty() &&
        final_sample.t_s - samples_.back().t_s < half_interval_s) {
      samples_.back() = std::move(final_sample);
    } else {
      samples_.push_back(std::move(final_sample));
    }
    running_ = false;
    finalized_ = true;
    body = to_json_locked_unsafe();
    path = options_.path;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                      body.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

bool TimelineSampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

std::size_t TimelineSampler::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

std::string TimelineSampler::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return to_json_locked_unsafe();
}

std::string TimelineSampler::to_json_locked_unsafe() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"fpsq.timeline.v1\",\n  \"manifest\": ";
  out += RunManifest::current().to_json();
  out += ",\n  \"interval_ms\": ";
  json::number_to(out, options_.interval_ms);
  out += ",\n  \"samples\": [";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const Sample& s = samples_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"t_s\": ";
    json::number_to(out, s.t_s);
    out += ", \"counters\": {";
    for (std::size_t c = 0; c < s.snapshot.counters.size(); ++c) {
      if (c > 0) out += ", ";
      out += "\"";
      json::escape_to(out, s.snapshot.counters[c].name);
      out += "\": " + std::to_string(s.snapshot.counters[c].value);
    }
    out += "}, \"gauges\": {";
    for (std::size_t g = 0; g < s.snapshot.gauges.size(); ++g) {
      if (g > 0) out += ", ";
      const auto& gv = s.snapshot.gauges[g];
      out += "\"";
      json::escape_to(out, gv.name);
      out += "\": ";
      json::number_to(out, gv.ever_set ? gv.value : 0.0);
    }
    out += "}, \"histograms\": {";
    for (std::size_t h = 0; h < s.snapshot.histograms.size(); ++h) {
      if (h > 0) out += ", ";
      const auto& hv = s.snapshot.histograms[h];
      out += "\"";
      json::escape_to(out, hv.name);
      out += "\": {\"count\": " + std::to_string(hv.count);
      out += ", \"mean\": ";
      json::number_to(out, hv.mean());
      out += ", \"p50\": ";
      json::number_to(out, hv.quantile(0.50));
      out += ", \"p90\": ";
      json::number_to(out, hv.quantile(0.90));
      out += ", \"p99\": ";
      json::number_to(out, hv.quantile(0.99));
      out += ", \"min\": ";
      json::number_to(out, hv.count > 0 ? hv.min : 0.0);
      out += ", \"max\": ";
      json::number_to(out, hv.count > 0 ? hv.max : 0.0);
      out += "}";
    }
    out += "}}";
  }
  out += samples_.empty() ? "]" : "\n  ]";
  out += "\n}";
  return out;
}

TimelineSampler& TimelineSampler::global() {
  static TimelineSampler* g = new TimelineSampler();  // leaked, like the registry
  return *g;
}

}  // namespace fpsq::obs
