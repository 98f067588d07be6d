#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/json.h"
#include "obs/manifest.h"

namespace fpsq::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sharded storage is organized as fixed arrays of lazily-allocated
// blocks: the block directory never reallocates, so the snapshotting
// thread can walk it while owner threads keep recording.
constexpr std::uint32_t kCounterBlockSize = 256;
constexpr std::uint32_t kCounterBlocks = 64;  // 16384 counters max
constexpr std::uint32_t kHistBlockSize = 32;
constexpr std::uint32_t kHistBlocks = 64;  // 2048 histograms max
constexpr std::uint32_t kGaugeBlockSize = 64;
constexpr std::uint32_t kGaugeBlocks = 64;  // 4096 gauges max

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct HistCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{kInf};
  std::atomic<double> max{-kInf};
  std::atomic<std::uint64_t> buckets[Histogram::kBuckets] = {};
};

struct GaugeCell {
  std::atomic<std::uint64_t> bits{0};  // bit_cast'ed double, last write
  std::atomic<double> peak{-kInf};     // set_max accumulator
  std::atomic<bool> ever_set{false};
};

using CounterBlock = std::array<CounterCell, kCounterBlockSize>;
using HistBlock = std::array<HistCell, kHistBlockSize>;
using GaugeBlock = std::array<GaugeCell, kGaugeBlockSize>;

/// Lazily-allocated block directory; `Block` cells are written by a
/// single owner thread and read (relaxed) by the snapshotter.
template <typename Block, std::uint32_t BlockCount, std::uint32_t BlockSize>
struct BlockDir {
  std::atomic<Block*> blocks[BlockCount] = {};

  ~BlockDir() {
    for (auto& b : blocks) delete b.load(std::memory_order_acquire);
  }

  /// Owner-thread access; allocates the block on first touch.
  typename Block::value_type& cell(std::uint32_t slot) {
    const std::uint32_t bi = slot / BlockSize;
    Block* b = blocks[bi].load(std::memory_order_acquire);
    if (b == nullptr) {
      b = new Block();
      blocks[bi].store(b, std::memory_order_release);
    }
    return (*b)[slot % BlockSize];
  }

  /// Reader access; nullptr when the block was never touched.
  const typename Block::value_type* peek(std::uint32_t slot) const {
    const Block* b = blocks[slot / BlockSize].load(std::memory_order_acquire);
    return b == nullptr ? nullptr : &(*b)[slot % BlockSize];
  }
};

struct Shard {
  BlockDir<CounterBlock, kCounterBlocks, kCounterBlockSize> counters;
  BlockDir<HistBlock, kHistBlocks, kHistBlockSize> hists;
};

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricInfo {
  std::string name;
  Kind kind;
  std::uint32_t slot;  ///< per-kind index
};

struct HistAgg {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = kInf;
  double max = -kInf;
  std::uint64_t buckets[Histogram::kBuckets] = {};

  void merge_cell(const HistCell& c) {
    count += c.count.load(std::memory_order_relaxed);
    sum += c.sum.load(std::memory_order_relaxed);
    min = std::min(min, c.min.load(std::memory_order_relaxed));
    max = std::max(max, c.max.load(std::memory_order_relaxed));
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      buckets[i] += c.buckets[i].load(std::memory_order_relaxed);
    }
  }
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

// ---- Histogram bucketing -------------------------------------------------

int Histogram::bucket_index(double v) noexcept {
  // Log-linear grid: bucket 0 is the underflow (v < 1e-18, incl. <= 0),
  // the last bucket the overflow (v >= 1e18); in between, decade e
  // (e in [-18, 17]) is split into 9 linear sub-buckets
  // [m*10^e, (m+1)*10^e) for m = 1..9. The search runs over the very
  // bounds the snapshot reports (bucket i's upper bound is bucket
  // i+1's lower bound), so the [lower, upper) contract holds exactly.
  if (!(v >= 1e-18)) return 0;  // also catches NaN
  if (v >= 1e18) return kBuckets - 1;
  static const auto kLower = [] {
    std::array<double, kBuckets - 2> lower{};
    for (int i = 1; i <= kBuckets - 2; ++i) {
      lower[static_cast<std::size_t>(i - 1)] = bucket_lower_bound(i);
    }
    return lower;
  }();
  // Regular buckets whose lower bound is <= v; v in [1e-18, 10^-18 as
  // pow() rounds it) still belongs to bucket 1.
  const auto n = std::upper_bound(kLower.begin(), kLower.end(), v) -
                 kLower.begin();
  return std::max(1, static_cast<int>(n));
}

double Histogram::bucket_lower_bound(int i) {
  if (i <= 0) return 0.0;
  if (i >= kBuckets - 1) return 1e18;
  const int idx = i - 1;
  const int e = idx / kSubBuckets - kDecades / 2;
  const int m = idx % kSubBuckets + 1;
  return static_cast<double>(m) * std::pow(10.0, e);
}

double Histogram::bucket_upper_bound(int i) {
  if (i <= 0) return 1e-18;
  if (i >= kBuckets - 1) return kInf;
  const int idx = i - 1;
  const int e = idx / kSubBuckets - kDecades / 2;
  const int m = idx % kSubBuckets + 1;
  if (m == kSubBuckets) return std::pow(10.0, e + 1);
  return static_cast<double>(m + 1) * std::pow(10.0, e);
}

// ---- registry internals --------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> index;  // name -> metrics[]
  std::vector<MetricInfo> metrics;
  std::uint32_t n_counters = 0;
  std::uint32_t n_gauges = 0;
  std::uint32_t n_hists = 0;

  std::vector<Shard*> shards;  // live thread shards (owned)
  std::vector<std::uint64_t> retired_counters;
  std::vector<HistAgg> retired_hists;
  BlockDir<GaugeBlock, kGaugeBlocks, kGaugeBlockSize> gauges;

  std::uint32_t intern(std::string_view name, Kind kind) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(std::string(name));
    if (it != index.end()) {
      const MetricInfo& info = metrics[it->second];
      if (info.kind != kind) {
        throw std::invalid_argument("MetricsRegistry: metric '" +
                                    std::string(name) +
                                    "' already registered as " +
                                    kind_name(info.kind));
      }
      return info.slot;
    }
    std::uint32_t slot = 0;
    switch (kind) {
      case Kind::kCounter:
        slot = n_counters++;
        if (slot >= kCounterBlocks * kCounterBlockSize) {
          throw std::runtime_error("MetricsRegistry: counter space full");
        }
        retired_counters.resize(n_counters, 0);
        break;
      case Kind::kGauge:
        slot = n_gauges++;
        if (slot >= kGaugeBlocks * kGaugeBlockSize) {
          throw std::runtime_error("MetricsRegistry: gauge space full");
        }
        gauges.cell(slot);  // touch so snapshots see the block
        break;
      case Kind::kHistogram:
        slot = n_hists++;
        if (slot >= kHistBlocks * kHistBlockSize) {
          throw std::runtime_error("MetricsRegistry: histogram space full");
        }
        retired_hists.resize(n_hists);
        break;
    }
    index.emplace(std::string(name), static_cast<std::uint32_t>(
                                         metrics.size()));
    metrics.push_back({std::string(name), kind, slot});
    return slot;
  }

  Shard* adopt_shard() {
    auto* s = new Shard();
    std::lock_guard<std::mutex> lock(mu);
    shards.push_back(s);
    return s;
  }

  void retire_shard(Shard* s) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::uint32_t slot = 0; slot < n_counters; ++slot) {
      if (const CounterCell* c = s->counters.peek(slot)) {
        retired_counters[slot] += c->value.load(std::memory_order_relaxed);
      }
    }
    for (std::uint32_t slot = 0; slot < n_hists; ++slot) {
      if (const HistCell* c = s->hists.peek(slot)) {
        retired_hists[slot].merge_cell(*c);
      }
    }
    shards.erase(std::remove(shards.begin(), shards.end(), s),
                 shards.end());
    delete s;
  }
};

namespace {

/// Per-thread shard handle; flushes into the (leaked) global registry's
/// retired totals when the thread exits.
struct ThreadShard {
  MetricsRegistry::Impl* owner = nullptr;
  Shard* shard = nullptr;
  ~ThreadShard() {
    if (owner != nullptr && shard != nullptr) {
      owner->retire_shard(shard);
    }
  }
};

Shard& shard_for(MetricsRegistry::Impl* impl) {
  thread_local ThreadShard t;
  if (t.shard == nullptr) {
    t.owner = impl;
    t.shard = impl->adopt_shard();
  }
  return *t.shard;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* g = new MetricsRegistry();  // intentionally leaked
  return *g;
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl()) {}

MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter{this, impl_->intern(name, Kind::kCounter)};
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge{this, impl_->intern(name, Kind::kGauge)};
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  return Histogram{this, impl_->intern(name, Kind::kHistogram)};
}

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t n) {
  counter(name).add(n);
}

void MetricsRegistry::set_gauge(std::string_view name, double v) {
  gauge(name).set(v);
}

void MetricsRegistry::max_gauge(std::string_view name, double v) {
  gauge(name).set_max(v);
}

void MetricsRegistry::record_histogram(std::string_view name, double v) {
  histogram(name).record(v);
}

void MetricsRegistry::counter_add(std::uint32_t id,
                                  std::uint64_t n) noexcept {
  auto& cell = shard_for(impl_).counters.cell(id);
  cell.value.store(cell.value.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(std::uint32_t id, double v) noexcept {
  auto& cell = impl_->gauges.cell(id);
  cell.bits.store(std::bit_cast<std::uint64_t>(v),
                  std::memory_order_relaxed);
  cell.ever_set.store(true, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_max(std::uint32_t id, double v) noexcept {
  auto& cell = impl_->gauges.cell(id);
  double cur = cell.peak.load(std::memory_order_relaxed);
  while (v > cur && !cell.peak.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
  cell.bits.store(
      std::bit_cast<std::uint64_t>(cell.peak.load(std::memory_order_relaxed)),
      std::memory_order_relaxed);
  cell.ever_set.store(true, std::memory_order_relaxed);
}

void MetricsRegistry::histogram_record(std::uint32_t id, double v) noexcept {
  auto& cell = shard_for(impl_).hists.cell(id);
  cell.count.store(cell.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  cell.sum.store(cell.sum.load(std::memory_order_relaxed) + v,
                 std::memory_order_relaxed);
  if (v < cell.min.load(std::memory_order_relaxed)) {
    cell.min.store(v, std::memory_order_relaxed);
  }
  if (v > cell.max.load(std::memory_order_relaxed)) {
    cell.max.store(v, std::memory_order_relaxed);
  }
  auto& bucket = cell.buckets[Histogram::bucket_index(v)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
}

void Counter::add(std::uint64_t n) const noexcept {
  if (reg_ != nullptr) reg_->counter_add(id_, n);
}

void Gauge::set(double v) const noexcept {
  if (reg_ != nullptr) reg_->gauge_set(id_, v);
}

void Gauge::set_max(double v) const noexcept {
  if (reg_ != nullptr) reg_->gauge_max(id_, v);
}

void Histogram::record(double v) const noexcept {
  if (reg_ != nullptr) reg_->histogram_record(id_, v);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const MetricInfo& m : impl_->metrics) {
    switch (m.kind) {
      case Kind::kCounter: {
        std::uint64_t total = impl_->retired_counters[m.slot];
        for (const Shard* s : impl_->shards) {
          if (const CounterCell* c = s->counters.peek(m.slot)) {
            total += c->value.load(std::memory_order_relaxed);
          }
        }
        out.counters.push_back({m.name, total});
        break;
      }
      case Kind::kGauge: {
        const GaugeCell* c = impl_->gauges.peek(m.slot);
        MetricsSnapshot::GaugeValue g;
        g.name = m.name;
        if (c != nullptr && c->ever_set.load(std::memory_order_relaxed)) {
          g.value = std::bit_cast<double>(
              c->bits.load(std::memory_order_relaxed));
          g.ever_set = true;
        }
        out.gauges.push_back(std::move(g));
        break;
      }
      case Kind::kHistogram: {
        HistAgg agg = impl_->retired_hists[m.slot];
        for (const Shard* s : impl_->shards) {
          if (const HistCell* c = s->hists.peek(m.slot)) {
            agg.merge_cell(*c);
          }
        }
        MetricsSnapshot::HistogramValue h;
        h.name = m.name;
        h.count = agg.count;
        h.sum = agg.sum;
        if (agg.count > 0) {
          h.min = agg.min;
          h.max = agg.max;
        }
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          if (agg.buckets[i] > 0) {
            h.buckets.push_back({Histogram::bucket_lower_bound(i),
                                 Histogram::bucket_upper_bound(i),
                                 agg.buckets[i]});
          }
        }
        out.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::fill(impl_->retired_counters.begin(), impl_->retired_counters.end(),
            std::uint64_t{0});
  for (auto& h : impl_->retired_hists) h = HistAgg{};
  for (Shard* s : impl_->shards) {
    for (std::uint32_t slot = 0; slot < impl_->n_counters; ++slot) {
      if (const CounterCell* c = s->counters.peek(slot)) {
        const_cast<CounterCell*>(c)->value.store(
            0, std::memory_order_relaxed);
      }
    }
    for (std::uint32_t slot = 0; slot < impl_->n_hists; ++slot) {
      if (const HistCell* c = s->hists.peek(slot)) {
        auto* cell = const_cast<HistCell*>(c);
        cell->count.store(0, std::memory_order_relaxed);
        cell->sum.store(0.0, std::memory_order_relaxed);
        cell->min.store(kInf, std::memory_order_relaxed);
        cell->max.store(-kInf, std::memory_order_relaxed);
        for (auto& b : cell->buckets) {
          b.store(0, std::memory_order_relaxed);
        }
      }
    }
  }
  for (std::uint32_t slot = 0; slot < impl_->n_gauges; ++slot) {
    if (const GaugeCell* c = impl_->gauges.peek(slot)) {
      auto* cell = const_cast<GaugeCell*>(c);
      cell->bits.store(0, std::memory_order_relaxed);
      cell->peak.store(-kInf, std::memory_order_relaxed);
      cell->ever_set.store(false, std::memory_order_relaxed);
    }
  }
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->metrics.size();
}

// ---- quantile estimation -------------------------------------------------

double MetricsSnapshot::HistogramValue::quantile(double q) const {
  // An empty histogram has no quantiles; NaN serializes as JSON null.
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    if (b.count == 0) continue;
    const double next = cum + static_cast<double>(b.count);
    if (next >= target) {
      // Linear interpolation within the bucket, clamped to the observed
      // range so the underflow (lower = 0) bucket stays finite and the
      // estimate never leaves [min, max].
      if (!std::isfinite(b.upper)) {
        // Overflow bucket: clamp at the top log-linear boundary. The
        // grid carries no shape information past it, so interpolating
        // toward max would let one huge outlier (or a recorded +inf,
        // where max itself is inf) drag every upper quantile with it.
        const double floor_v = std::max(b.lower, min);
        return std::isfinite(floor_v) ? floor_v : b.lower;
      }
      double lo = std::max(b.lower, min);
      double hi = std::min(b.upper, max);
      if (i == 0 && b.lower == 0.0) lo = min;  // underflow: true floor
      if (!(hi >= lo)) hi = lo;
      const double frac = (target - cum) / static_cast<double>(b.count);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return max;
}

// ---- export --------------------------------------------------------------

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"fpsq.metrics.v2\",\n  \"manifest\": ";
  out += RunManifest::current().to_json();
  out += ",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    json::escape_to(out, counters[i].name);
    out += "\": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    json::escape_to(out, gauges[i].name);
    out += "\": ";
    json::number_to(out, gauges[i].ever_set ? gauges[i].value : 0.0);
  }
  out += gauges.empty() ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    json::escape_to(out, h.name);
    out += "\": {\"count\": " + std::to_string(h.count);
    out += ", \"sum\": ";
    json::number_to(out, h.sum);
    out += ", \"min\": ";
    json::number_to(out, h.count > 0 ? h.min : 0.0);
    out += ", \"max\": ";
    json::number_to(out, h.count > 0 ? h.max : 0.0);
    out += ", \"mean\": ";
    json::number_to(out, h.mean());
    out += ", \"p50\": ";
    json::number_to(out, h.quantile(0.50));
    out += ", \"p90\": ";
    json::number_to(out, h.quantile(0.90));
    out += ", \"p99\": ";
    json::number_to(out, h.quantile(0.99));
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += "[";
      json::number_to(out, h.buckets[b].lower);
      out += ", ";
      json::number_to(out, h.buckets[b].upper);
      out += ", " + std::to_string(h.buckets[b].count) + "]";
    }
    out += "]}";
  }
  out += histograms.empty() ? "}" : "\n  }";
  out += "\n}";
  return out;
}

bool write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = snapshot.to_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) ==
                      body.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

std::string render_summary(const MetricsSnapshot& s) {
  std::ostringstream os;
  os.precision(4);
  os << "| metric | type | count | value/mean | p50 | p90 | p99 | min |"
        " max |\n";
  os << "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& c : s.counters) {
    os << "| " << c.name << " | counter | " << c.value
       << " | | | | | | |\n";
  }
  for (const auto& g : s.gauges) {
    os << "| " << g.name << " | gauge | | ";
    if (g.ever_set) {
      os << g.value;
    } else {
      os << "-";
    }
    os << " | | | | | |\n";
  }
  for (const auto& h : s.histograms) {
    os << "| " << h.name << " | histogram | " << h.count << " | "
       << h.mean() << " | ";
    if (h.count > 0) {
      os << h.quantile(0.50) << " | " << h.quantile(0.90) << " | "
         << h.quantile(0.99) << " | " << h.min << " | " << h.max;
    } else {
      os << "- | - | - | - | -";
    }
    os << " |\n";
  }
  if (s.counters.empty() && s.gauges.empty() && s.histograms.empty()) {
    os << "| (no metrics recorded) | | | | | | | | |\n";
  }
  return os.str();
}

void ensure_baseline_schema() {
  auto& reg = MetricsRegistry::global();
  (void)reg.counter("sim.events_executed");
  (void)reg.gauge("sim.events_per_sec");
  (void)reg.gauge("sim.heap_high_water");
  (void)reg.gauge("sim.run_wall_s");
  (void)reg.counter("sim.replications");
  // Parallel runtime (fpsq::par).
  (void)reg.gauge("par.pool.threads");
  (void)reg.gauge("par.pool.workers");
  (void)reg.counter("par.pool.spawn_failures");
  (void)reg.counter("par.pool.tasks");
  (void)reg.counter("par.pool.regions");
  (void)reg.gauge("par.pool.queue_high_water");
  (void)reg.gauge("par.pool.busy_s");
  (void)reg.gauge("par.pool.utilization");
  // Solver memoization (queueing::SolverCache).
  (void)reg.counter("queueing.cache.dek1.hits");
  (void)reg.counter("queueing.cache.dek1.misses");
  (void)reg.counter("queueing.cache.giek1.hits");
  (void)reg.counter("queueing.cache.giek1.misses");
  (void)reg.gauge("queueing.cache.entries");
  // Robustness layer (fpsq::err + failed sweep points).
  (void)reg.counter("err.solver_failures");
  (void)reg.counter("err.injected_faults");
  (void)reg.counter("err.failed_cells");
  // Tail-inversion kernel (queueing::TailKernel + invert_tail_newton).
  (void)reg.counter("queueing.kernel.tail_evals");
  (void)reg.counter("queueing.kernel.density_evals");
  (void)reg.counter("queueing.kernel.closed_form_hits");
  (void)reg.counter("queueing.kernel.series_kernels");
  (void)reg.counter("queueing.convolution.tail_evals");
  (void)reg.histogram("queueing.kernel.newton_iters");
  // Serving front end (fpsq::serve): undeliverable responses.
  (void)reg.counter("serve.write_errors");
  // Differential self-check harness (fpsq::check, `fpsq check`).
  (void)reg.counter("check.points");
  (void)reg.counter("check.comparisons");
  (void)reg.counter("check.mismatches");
  (void)reg.counter("check.skipped");
}

}  // namespace fpsq::obs
