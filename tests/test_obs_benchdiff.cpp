// Golden cases for the benchdiff engine: the exact scenarios the CI
// regression gate depends on — clean pass, timing noise inside and
// beyond the warn tolerance, accuracy drift, and benches missing from
// either side.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/benchcompare.h"
#include "obs/json.h"

namespace {

using fpsq::obs::BenchDiffFinding;
using fpsq::obs::BenchDiffOptions;
using fpsq::obs::BenchDiffReport;
using fpsq::obs::classify_metric;
using fpsq::obs::diff_bench_collections;
using fpsq::obs::MetricClass;

BenchDiffReport diff(const std::string& base, const std::string& cur,
                     const BenchDiffOptions& opt = {}) {
  return diff_bench_collections(fpsq::obs::json::parse(base),
                                fpsq::obs::json::parse(cur), opt);
}

const char* kBase = R"({
  "schema": "fpsq.bench.v2",
  "manifest": {"schema": "fpsq.manifest.v1"},
  "benches": [
    {"name": "table1", "wall_s": 1.0,
     "metrics": {"err_pct": 0.5, "q999_ms": 48.2, "threads": 4}},
    {"name": "table4", "wall_s": 2.0,
     "metrics": {"n_max": 11, "events_per_sec": 1e6}}
  ]
})";

TEST(ObsBenchdiff, MetricClassification) {
  EXPECT_EQ(classify_metric("wall_s"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("run_wall_s"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("events_per_sec"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("sweep_speedup"), MetricClass::kTiming);
  EXPECT_EQ(classify_metric("threads"), MetricClass::kInfo);
  EXPECT_EQ(classify_metric("cache_entries"), MetricClass::kInfo);
  EXPECT_EQ(classify_metric("err_pct"), MetricClass::kAccuracy);
  EXPECT_EQ(classify_metric("q999_ms"), MetricClass::kAccuracy);
  EXPECT_EQ(classify_metric("n_max"), MetricClass::kAccuracy);
  // An error measured in seconds is accuracy despite its `_s` suffix.
  EXPECT_EQ(classify_metric("quantile_max_abs_diff_s"),
            MetricClass::kAccuracy);
  EXPECT_EQ(classify_metric("max_err_s"), MetricClass::kAccuracy);
}

TEST(ObsBenchdiff, IdenticalCollectionsPass) {
  const auto r = diff(kBase, kBase);
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_STREQ(r.verdict(), "pass");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.benches_compared, 2u);
  // threads is info-class and skipped: 2x wall_s + err_pct + q999_ms +
  // n_max + events_per_sec.
  EXPECT_EQ(r.metrics_compared, 6u);
}

TEST(ObsBenchdiff, TimingNoiseWithinToleranceIsClean) {
  // wall_s 1.0 -> 1.4: inside the default 50% relative tolerance.
  const auto r = diff(kBase, R"({"benches": [
    {"name": "table1", "wall_s": 1.4,
     "metrics": {"err_pct": 0.5, "q999_ms": 48.2, "threads": 8}},
    {"name": "table4", "wall_s": 2.0,
     "metrics": {"n_max": 11, "events_per_sec": 1e6}}
  ]})");
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_TRUE(r.findings.empty());
}

TEST(ObsBenchdiff, TimingDeltaBeyondToleranceOnlyWarns) {
  const auto r = diff(kBase, R"({"benches": [
    {"name": "table1", "wall_s": 5.0,
     "metrics": {"err_pct": 0.5, "q999_ms": 48.2}},
    {"name": "table4", "wall_s": 2.0,
     "metrics": {"n_max": 11, "events_per_sec": 1e6}}
  ]})");
  EXPECT_EQ(r.exit_code(), 3);
  EXPECT_STREQ(r.verdict(), "warn");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].metric, "wall_s");
  EXPECT_EQ(r.findings[0].cls, MetricClass::kTiming);
  EXPECT_EQ(r.findings[0].severity, BenchDiffFinding::Severity::kWarn);
  EXPECT_EQ(r.failures, 0u);
}

TEST(ObsBenchdiff, SmallAbsoluteTimingJitterIsIgnored) {
  // 1 ms -> 4 ms is 3x relative but inside the absolute slack that
  // keeps micro-benches from tripping the gate on scheduler noise.
  const auto r = diff(
      R"({"benches": [{"name": "micro", "wall_s": 0.001, "metrics": {}}]})",
      R"({"benches": [{"name": "micro", "wall_s": 0.004, "metrics": {}}]})");
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(ObsBenchdiff, AccuracyDriftFails) {
  const auto r = diff(kBase, R"({"benches": [
    {"name": "table1", "wall_s": 1.0,
     "metrics": {"err_pct": 0.9, "q999_ms": 48.2}},
    {"name": "table4", "wall_s": 2.0,
     "metrics": {"n_max": 11, "events_per_sec": 1e6}}
  ]})");
  EXPECT_EQ(r.exit_code(), 4);
  EXPECT_STREQ(r.verdict(), "fail");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].bench, "table1");
  EXPECT_EQ(r.findings[0].metric, "err_pct");
  EXPECT_EQ(r.findings[0].severity, BenchDiffFinding::Severity::kFail);
  // The failing metric is named in both renderings.
  EXPECT_NE(r.to_markdown().find("err_pct"), std::string::npos);
  EXPECT_NE(r.to_json().find("err_pct"), std::string::npos);
}

TEST(ObsBenchdiff, TinyAccuracyWobbleWithinTolerancePasses) {
  const auto r = diff(
      R"({"benches": [{"name": "b", "metrics": {"q999_ms": 48.2}}]})",
      R"({"benches": [{"name": "b",
          "metrics": {"q999_ms": 48.20000001}}]})");
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(ObsBenchdiff, BenchMissingFromCurrentFails) {
  const auto r = diff(kBase, R"({"benches": [
    {"name": "table1", "wall_s": 1.0,
     "metrics": {"err_pct": 0.5, "q999_ms": 48.2}}
  ]})");
  EXPECT_EQ(r.exit_code(), 4);
  bool found = false;
  for (const auto& f : r.findings) {
    if (f.bench == "table4" &&
        f.severity == BenchDiffFinding::Severity::kFail) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// A rename shows up as one bench missing plus one current-only bench:
// the missing-bench failure must carry the rename hint naming the
// current-only candidates, so the verdict explains itself.
TEST(ObsBenchdiff, MissingBenchNamesRenameCandidates) {
  const auto r = diff(
      R"({"benches": [{"name": "old_name", "metrics": {"x": 1}}]})",
      R"({"benches": [{"name": "new_name", "metrics": {"x": 1}}]})");
  EXPECT_EQ(r.exit_code(), 4);  // missing bench stays a hard failure
  bool hinted = false;
  for (const auto& f : r.findings) {
    if (f.bench == "old_name" &&
        f.severity == BenchDiffFinding::Severity::kFail &&
        f.note.find("new_name") != std::string::npos &&
        f.note.find("renamed?") != std::string::npos) {
      hinted = true;
    }
  }
  EXPECT_TRUE(hinted);
}

// No current-only benches: a plain removal must NOT claim a rename.
TEST(ObsBenchdiff, PlainRemovalHasNoRenameHint) {
  const auto r = diff(
      R"({"benches": [{"name": "a", "metrics": {"x": 1}},
                      {"name": "b", "metrics": {"x": 1}}]})",
      R"({"benches": [{"name": "a", "metrics": {"x": 1}}]})");
  EXPECT_EQ(r.exit_code(), 4);
  for (const auto& f : r.findings) {
    if (f.bench == "b") {
      EXPECT_EQ(f.note.find("renamed?"), std::string::npos) << f.note;
    }
  }
}

TEST(ObsBenchdiff, NewBenchInCurrentOnlyWarns) {
  const auto r = diff(
      R"({"benches": [{"name": "a", "metrics": {"x": 1}}]})",
      R"({"benches": [{"name": "a", "metrics": {"x": 1}},
                      {"name": "brand_new", "metrics": {"x": 2}}]})");
  EXPECT_EQ(r.exit_code(), 3);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].bench, "brand_new");
  EXPECT_EQ(r.findings[0].severity, BenchDiffFinding::Severity::kWarn);
}

TEST(ObsBenchdiff, MetricMissingFromCurrentFailsForAccuracyClass) {
  const auto r = diff(
      R"({"benches": [{"name": "a", "metrics": {"x": 1, "y": 2}}]})",
      R"({"benches": [{"name": "a", "metrics": {"x": 1}}]})");
  EXPECT_EQ(r.exit_code(), 4);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].metric, "y");
}

TEST(ObsBenchdiff, NullMismatchIsFlagged) {
  const auto r = diff(
      R"({"benches": [{"name": "a", "metrics": {"x": 1}}]})",
      R"({"benches": [{"name": "a", "metrics": {"x": null}}]})");
  EXPECT_EQ(r.exit_code(), 4);
  // Matching nulls on both sides are fine.
  const auto r2 = diff(
      R"({"benches": [{"name": "a", "metrics": {"x": null}}]})",
      R"({"benches": [{"name": "a", "metrics": {"x": null}}]})");
  EXPECT_EQ(r2.exit_code(), 0);
}

TEST(ObsBenchdiff, AcceptsV1BareArray) {
  const auto r = diff(
      R"([{"name": "a", "wall_s": 1.0, "metrics": {"x": 1}}])",
      R"([{"name": "a", "wall_s": 1.1, "metrics": {"x": 1}}])");
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_EQ(r.benches_compared, 1u);
}

TEST(ObsBenchdiff, RejectsMalformedCollections) {
  EXPECT_THROW(diff("42", "[]"), std::runtime_error);
  EXPECT_THROW(diff(R"({"schema": "x"})", "[]"), std::runtime_error);
  EXPECT_THROW(diff(R"([{"metrics": {}}])", "[]"), std::runtime_error);
}

TEST(ObsBenchdiff, CustomTolerancesAreHonored) {
  BenchDiffOptions strict;
  strict.timing_rel_tol = 0.05;
  strict.timing_abs_tol = 0.0;
  const auto r = diff(
      R"({"benches": [{"name": "a", "wall_s": 1.0, "metrics": {}}]})",
      R"({"benches": [{"name": "a", "wall_s": 1.2, "metrics": {}}]})",
      strict);
  EXPECT_EQ(r.exit_code(), 3);

  BenchDiffOptions loose;
  loose.accuracy_rel_tol = 0.5;
  const auto r2 = diff(
      R"({"benches": [{"name": "a", "metrics": {"x": 1.0}}]})",
      R"({"benches": [{"name": "a", "metrics": {"x": 1.2}}]})", loose);
  EXPECT_EQ(r2.exit_code(), 0);
}

TEST(ObsBenchdiff, JsonReportParsesAndCountsMatch) {
  const auto r = diff(kBase, R"({"benches": [
    {"name": "table1", "wall_s": 9.0,
     "metrics": {"err_pct": 0.9, "q999_ms": 48.2}},
    {"name": "table4", "wall_s": 2.0,
     "metrics": {"n_max": 11, "events_per_sec": 1e6}}
  ]})");
  const auto doc = fpsq::obs::json::parse(r.to_json());
  EXPECT_EQ(doc.string_or("schema", ""), "fpsq.benchdiff.v1");
  EXPECT_EQ(doc.string_or("verdict", ""), "fail");
  EXPECT_DOUBLE_EQ(doc.number_or("exit_code", 0.0), 4.0);
  const auto* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->array.size(), r.findings.size());
  EXPECT_DOUBLE_EQ(doc.number_or("failures", 0.0),
                   static_cast<double>(r.failures));
  EXPECT_DOUBLE_EQ(doc.number_or("warnings", 0.0),
                   static_cast<double>(r.warnings));
}

}  // namespace
