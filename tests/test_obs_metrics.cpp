// Tests for the obs metrics registry: handle semantics, histogram
// bucketing, cross-thread snapshot merging and JSON export. Uses the
// direct registry API throughout so the suite also passes under
// -DFPSQ_NO_METRICS (only the FPSQ_OBS_* macros compile out).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace {

using fpsq::obs::Histogram;
using fpsq::obs::MetricsRegistry;
using fpsq::obs::MetricsSnapshot;

const MetricsSnapshot::CounterValue* find_counter(
    const MetricsSnapshot& s, const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeValue* find_gauge(const MetricsSnapshot& s,
                                              const std::string& name) {
  for (const auto& g : s.gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramValue* find_histogram(
    const MetricsSnapshot& s, const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST(ObsMetrics, CounterAccumulatesAndInterns) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  const auto c1 = reg.counter("test.metrics.counter");
  const auto c2 = reg.counter("test.metrics.counter");  // same metric
  c1.add();
  c1.add(41);
  c2.add(100);
  const auto s = reg.snapshot();
  const auto* v = find_counter(s, "test.metrics.counter");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 142u);
}

TEST(ObsMetrics, GaugeSetAndMax) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  const auto g = reg.gauge("test.metrics.gauge");
  g.set(3.5);
  g.set(-2.0);
  const auto hw = reg.gauge("test.metrics.highwater");
  hw.set_max(5.0);
  hw.set_max(2.0);  // lower: must not stick
  hw.set_max(9.0);
  const auto s = reg.snapshot();
  const auto* gv = find_gauge(s, "test.metrics.gauge");
  ASSERT_NE(gv, nullptr);
  EXPECT_TRUE(gv->ever_set);
  EXPECT_DOUBLE_EQ(gv->value, -2.0);
  const auto* hv = find_gauge(s, "test.metrics.highwater");
  ASSERT_NE(hv, nullptr);
  EXPECT_DOUBLE_EQ(hv->value, 9.0);
}

TEST(ObsMetrics, KindMismatchThrows) {
  auto& reg = MetricsRegistry::global();
  (void)reg.counter("test.metrics.kind_clash");
  EXPECT_THROW(reg.histogram("test.metrics.kind_clash"),
               std::invalid_argument);
  EXPECT_THROW(reg.gauge("test.metrics.kind_clash"),
               std::invalid_argument);
}

TEST(ObsMetrics, HistogramBucketGrid) {
  // Underflow bucket catches everything below 1e-18 (and non-positives).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-19), 0);
  // Sub-decade buckets are half-open [m*10^e, (m+1)*10^e), m = 1..9.
  const int i1 = Histogram::bucket_index(1.0);
  EXPECT_EQ(Histogram::bucket_index(1.999), i1);
  EXPECT_EQ(Histogram::bucket_index(2.0), i1 + 1);
  EXPECT_EQ(Histogram::bucket_index(9.999), i1 + 8);
  EXPECT_EQ(Histogram::bucket_index(10.0), i1 + 9);
  // Overflow bucket.
  EXPECT_EQ(Histogram::bucket_index(1e18), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
  // bucket_lower_bound / bucket_upper_bound bracket every value the
  // index formula maps there, including fp-delicate decade boundaries.
  for (double v : {1e-18, 3e-9, 0.5, 1.0, 9.999, 10.0, 42.0, 1e6,
                   9.9e17}) {
    const int i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower_bound(i), v) << "v=" << v;
    EXPECT_GT(Histogram::bucket_upper_bound(i), v) << "v=" << v;
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_GT(Histogram::bucket_lower_bound(i + 1), v) << "v=" << v;
    }
  }
  // Bucket edges tile the grid: upper(i) == lower(i+1).
  for (int i = 1; i + 2 < Histogram::kBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper_bound(i),
                     Histogram::bucket_lower_bound(i + 1))
        << "i=" << i;
  }
}

/// The log10/pow bucketing that Histogram::bucket_index replaced with a
/// search over the reported bounds; every value must keep its bucket.
int log_linear_bucket(double v) {
  constexpr int kDecades = Histogram::kDecades;
  constexpr int kSub = Histogram::kSubBuckets;
  if (!(v >= 1e-18)) return 0;
  if (v >= 1e18) return Histogram::kBuckets - 1;
  int e = static_cast<int>(std::floor(std::log10(v)));
  e = std::clamp(e, -kDecades / 2 - 1, kDecades / 2);
  int m = static_cast<int>(v / std::pow(10.0, e));
  if (m < 1) {
    m = kSub;
    --e;
  } else if (m > kSub) {
    m = 1;
    ++e;
  }
  if (e < -kDecades / 2) return 0;
  if (e >= kDecades / 2) return Histogram::kBuckets - 1;
  int i = 1 + (e + kDecades / 2) * kSub + (m - 1);
  if (v < Histogram::bucket_lower_bound(i) && i > 1) {
    --i;
  } else if (v >= Histogram::bucket_upper_bound(i) &&
             i < Histogram::kBuckets - 1) {
    ++i;
  }
  return i;
}

TEST(ObsMetrics, BucketIndexKeepsTheLogLinearBuckets) {
  std::vector<double> values{0.0, -1.0, 1e-300, 1e-19, 1e-18, 1e18,
                             std::nextafter(1e18, 0.0), 1e300};
  // Every reported bound and its neighbouring doubles...
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    for (double b : {Histogram::bucket_lower_bound(i),
                     Histogram::bucket_upper_bound(i)}) {
      if (!std::isfinite(b)) continue;
      double lo = b, hi = b;
      for (int n = 0; n < 4; ++n) {
        values.push_back(lo);
        values.push_back(hi);
        lo = std::nextafter(lo, 0.0);
        hi = std::nextafter(hi, 1e300);
      }
    }
  }
  // ...and a dense log sweep across the whole grid.
  for (double x = 1e-19; x < 2e18; x *= 1.0007) values.push_back(x);
  for (double v : values) {
    ASSERT_EQ(Histogram::bucket_index(v), log_linear_bucket(v))
        << "v=" << v;
  }
}

TEST(ObsMetrics, HistogramStats) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  const auto h = reg.histogram("test.metrics.hist");
  for (double v : {1.0, 2.0, 3.0, 400.0}) h.record(v);
  const auto s = reg.snapshot();
  const auto* hv = find_histogram(s, "test.metrics.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 4u);
  EXPECT_DOUBLE_EQ(hv->sum, 406.0);
  EXPECT_DOUBLE_EQ(hv->min, 1.0);
  EXPECT_DOUBLE_EQ(hv->max, 400.0);
  EXPECT_DOUBLE_EQ(hv->mean(), 101.5);
  // With sub-decade resolution each sample lands in its own bucket:
  // [1,2), [2,3), [3,4) and [400,500).
  std::uint64_t total = 0;
  for (const auto& b : hv->buckets) total += b.count;
  EXPECT_EQ(total, 4u);
  ASSERT_EQ(hv->buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(hv->buckets[0].lower, 1.0);
  EXPECT_DOUBLE_EQ(hv->buckets[0].upper, 2.0);
  EXPECT_DOUBLE_EQ(hv->buckets[3].lower, 400.0);
  EXPECT_DOUBLE_EQ(hv->buckets[3].upper, 500.0);
  for (const auto& b : hv->buckets) EXPECT_EQ(b.count, 1u);
  // Interpolated quantiles stay within the observed range and ordered.
  const double p50 = hv->quantile(0.50);
  const double p99 = hv->quantile(0.99);
  EXPECT_GE(p50, hv->min);
  EXPECT_LE(p99, hv->max);
  EXPECT_LE(p50, p99);
}

TEST(ObsMetrics, SnapshotMergesThreadShards) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  const auto c = reg.counter("test.metrics.mt_counter");
  const auto h = reg.histogram("test.metrics.mt_hist");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.record(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto s = reg.snapshot();
  const auto* cv = find_counter(s, "test.metrics.mt_counter");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->value, static_cast<std::uint64_t>(kThreads) * kIters);
  const auto* hv = find_histogram(s, "test.metrics.mt_hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ObsMetrics, ResetZeroesValuesButKeepsNames) {
  auto& reg = MetricsRegistry::global();
  const auto c = reg.counter("test.metrics.reset_counter");
  c.add(7);
  const auto before = reg.metric_count();
  reg.reset();
  EXPECT_EQ(reg.metric_count(), before);
  const auto s1 = reg.snapshot();
  const auto* v = find_counter(s1, "test.metrics.reset_counter");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 0u);
  c.add(3);  // handles stay valid across reset
  const auto s2 = reg.snapshot();
  const auto* v2 = find_counter(s2, "test.metrics.reset_counter");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->value, 3u);
}

TEST(ObsMetrics, JsonExport) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.add_counter("test.metrics.json_counter", 5);
  reg.set_gauge("test.metrics.json_gauge", 1.25);
  reg.record_histogram("test.metrics.json_hist", 2.0);
  const auto s = reg.snapshot();
  const std::string json = s.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.metrics.json_counter"), std::string::npos);

  const std::string path = ::testing::TempDir() + "obs_metrics.json";
  ASSERT_TRUE(fpsq::obs::write_metrics_json(path, s));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json + "\n");
}

TEST(ObsMetrics, RenderSummaryMentionsEveryMetric) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.add_counter("test.metrics.summary_counter", 2);
  reg.record_histogram("test.metrics.summary_hist", 3.0);
  const std::string text = fpsq::obs::render_summary(reg.snapshot());
  EXPECT_NE(text.find("test.metrics.summary_counter"), std::string::npos);
  EXPECT_NE(text.find("test.metrics.summary_hist"), std::string::npos);
}

TEST(ObsMetrics, MacrosMatchBuildConfiguration) {
  auto& reg = MetricsRegistry::global();
  reg.reset();
  int evaluations = 0;
  FPSQ_OBS_COUNT("test.metrics.macro_counter");
  FPSQ_OBS_HIST("test.metrics.macro_hist", (++evaluations, 4.0));
  // The value expression is evaluated exactly once in both builds.
  EXPECT_EQ(evaluations, 1);
  const auto s = reg.snapshot();
#ifndef FPSQ_NO_METRICS
  const auto* cv = find_counter(s, "test.metrics.macro_counter");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->value, 1u);
  const auto* hv = find_histogram(s, "test.metrics.macro_hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 1u);
#else
  // Compiled out: the macros must not have registered anything.
  EXPECT_EQ(find_counter(s, "test.metrics.macro_counter"), nullptr);
  EXPECT_EQ(find_histogram(s, "test.metrics.macro_hist"), nullptr);
#endif
}

}  // namespace
