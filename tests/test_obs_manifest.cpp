// Tests for the run manifest (schema fpsq.manifest.v1): field
// stability within a process, JSON escaping, and the round-trip into a
// metrics snapshot export — the provenance chain `fpsq benchdiff` and
// the timeline rely on.
#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"

namespace {

using fpsq::obs::MetricsRegistry;
using fpsq::obs::RunManifest;

TEST(ObsManifest, ProcessManifestIsPopulatedAndStable) {
  const RunManifest& m = RunManifest::current();
  EXPECT_EQ(m.schema, "fpsq.manifest.v1");
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_FALSE(m.sanitizer.empty());
  EXPECT_FALSE(m.hostname.empty());
  // ISO 8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(m.timestamp_utc.size(), 20u);
  EXPECT_EQ(m.timestamp_utc[10], 'T');
  EXPECT_EQ(m.timestamp_utc.back(), 'Z');
  // Captured once per process: a second access returns identical text.
  EXPECT_EQ(RunManifest::current().to_json(), m.to_json());
#ifdef FPSQ_NO_METRICS
  EXPECT_FALSE(m.metrics_compiled);
#else
  EXPECT_TRUE(m.metrics_compiled);
#endif
}

TEST(ObsManifest, ToJsonParsesAndEscapes) {
  RunManifest m;
  m.git_sha = "abc123";
  m.build_type = "Rel\"ease\\";  // hostile quoting must stay valid JSON
  m.compiler = "GNU 13.2.0";
  m.sanitizer = "none";
  m.hostname = "host\nname";
  m.timestamp_utc = "2026-08-08T00:00:00Z";
  m.threads = 8;
  m.has_seed = true;
  m.seed = 12345;
  const auto v = fpsq::obs::json::parse(m.to_json());
  EXPECT_EQ(v.string_or("schema", ""), "fpsq.manifest.v1");
  EXPECT_EQ(v.string_or("git_sha", ""), "abc123");
  EXPECT_EQ(v.string_or("build_type", ""), "Rel\"ease\\");
  EXPECT_EQ(v.string_or("hostname", ""), "host\nname");
  EXPECT_DOUBLE_EQ(v.number_or("threads", 0.0), 8.0);
  EXPECT_DOUBLE_EQ(v.number_or("seed", 0.0), 12345.0);
}

TEST(ObsManifest, SeedSerializesAsNullUntilSet) {
  RunManifest m;
  m.timestamp_utc = "2026-08-08T00:00:00Z";
  const auto v = fpsq::obs::json::parse(m.to_json());
  ASSERT_NE(v.find("seed"), nullptr);
  EXPECT_TRUE(v.find("seed")->is_null());
}

TEST(ObsManifest, RoundTripsThroughMetricsSnapshot) {
  auto& m = RunManifest::current();
  const unsigned threads_before = m.threads;
  m.threads = 7;
  m.has_seed = true;
  m.seed = 424242;

  auto& reg = MetricsRegistry::global();
  reg.reset();
  reg.add_counter("test.manifest.counter", 1);
  const auto doc = fpsq::obs::json::parse(reg.snapshot().to_json());
  EXPECT_EQ(doc.string_or("schema", ""), "fpsq.metrics.v2");
  const auto* manifest = doc.find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->string_or("schema", ""), "fpsq.manifest.v1");
  EXPECT_EQ(manifest->string_or("git_sha", ""), m.git_sha);
  EXPECT_EQ(manifest->string_or("timestamp_utc", ""), m.timestamp_utc);
  EXPECT_DOUBLE_EQ(manifest->number_or("threads", 0.0), 7.0);
  EXPECT_DOUBLE_EQ(manifest->number_or("seed", 0.0), 424242.0);

  m.threads = threads_before;
  m.has_seed = false;
  m.seed = 0;
}

}  // namespace
