#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace fpsq::obs {

namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t this_thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t mine = next.fetch_add(1);
  return mine;
}

thread_local std::uint32_t t_span_depth = 0;

}  // namespace

struct TraceRecorder::Impl {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> head{0};  // next write position (monotonic)
  std::atomic<std::uint64_t> total{0};
  Clock::time_point epoch = Clock::now();

  mutable std::mutex mu;  // guards ring resize only
  // Allocated on first enable (or set_capacity), before `enabled` flips:
  // a process that never traces never pays for the 2 MiB default ring.
  std::vector<TraceEvent> ring;
  std::size_t mask = 0;  // ring.size() - 1, ring size is a power of two

  void resize_locked(std::size_t n) {
    ring.assign(std::bit_ceil(std::max<std::size_t>(n, 16)), TraceEvent{});
    mask = ring.size() - 1;
    head.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
  }
};

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* g = new TraceRecorder();  // intentionally leaked
  return *g;
}

TraceRecorder::TraceRecorder() : impl_(new Impl()) {}

TraceRecorder::~TraceRecorder() { delete impl_; }

bool TraceRecorder::enabled() const noexcept {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void TraceRecorder::set_enabled(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->ring.empty()) impl_->resize_locked(kDefaultCapacity);
  }
  // Release: a recorder that sees the flag also sees the ring.
  impl_->enabled.store(on, std::memory_order_release);
}

void TraceRecorder::set_capacity(std::size_t n) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->resize_locked(n);
}

std::size_t TraceRecorder::capacity() const noexcept {
  return impl_->ring.size();
}

void TraceRecorder::record(const TraceEvent& ev) noexcept {
  if (!impl_->enabled.load(std::memory_order_acquire)) return;
  const std::uint64_t pos =
      impl_->head.fetch_add(1, std::memory_order_relaxed);
  impl_->ring[pos & impl_->mask] = ev;
  impl_->total.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::recorded_total() const noexcept {
  return impl_->total.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const std::uint64_t head = impl_->head.load(std::memory_order_relaxed);
  const std::uint64_t n = std::min<std::uint64_t>(head, impl_->ring.size());
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = head - n; i < head; ++i) {
    const TraceEvent& ev = impl_->ring[i & impl_->mask];
    if (ev.name != nullptr) out.push_back(ev);
  }
  return out;
}

std::string TraceRecorder::chrome_trace_json() const {
  const auto events = snapshot();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ",";
    first = false;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "\n{\"name\": \"%s\", \"cat\": \"fpsq\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"depth\": %u}}",
                  ev.name, static_cast<double>(ev.start_ns) * 1e-3,
                  static_cast<double>(ev.duration_ns) * 1e-3, ev.tid,
                  ev.depth);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}";
  return out;
}

void TraceRecorder::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& ev : impl_->ring) ev = TraceEvent{};
  impl_->head.store(0, std::memory_order_relaxed);
  impl_->total.store(0, std::memory_order_relaxed);
  impl_->epoch = Clock::now();
}

std::uint64_t TraceRecorder::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           impl_->epoch)
          .count());
}

Span::Span(const char* name) noexcept : name_(nullptr) {
  TraceRecorder& rec = TraceRecorder::global();
  if (!rec.enabled()) return;
  name_ = name;
  start_ns_ = rec.now_ns();
  depth_ = t_span_depth++;
}

Span::~Span() {
  if (name_ == nullptr) return;
  --t_span_depth;
  TraceRecorder& rec = TraceRecorder::global();
  TraceEvent ev;
  ev.name = name_;
  ev.start_ns = start_ns_;
  const std::uint64_t end = rec.now_ns();
  ev.duration_ns = end > start_ns_ ? end - start_ns_ : 0;
  ev.depth = depth_;
  ev.tid = this_thread_ordinal();
  rec.record(ev);
}

bool write_trace_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = TraceRecorder::global().chrome_trace_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                      body.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace fpsq::obs
