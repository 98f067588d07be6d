// Tests for the obs tracing recorder: span nesting, ring-buffer
// wraparound, Chrome trace JSON export and disabled-recorder inertness.
// Uses the Span class directly (not FPSQ_SPAN) so the suite also passes
// under -DFPSQ_NO_METRICS.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/trace.h"

namespace {

using fpsq::obs::Span;
using fpsq::obs::TraceEvent;
using fpsq::obs::TraceRecorder;

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = TraceRecorder::global();
    rec.set_enabled(true);
    rec.set_capacity(1024);
    rec.reset();
  }
  void TearDown() override {
    TraceRecorder::global().set_enabled(false);
    TraceRecorder::global().reset();
  }
};

TEST(ObsTraceRing, AllocatedOnFirstEnable) {
  // A process that never traces never pays for the ring.
  TraceRecorder rec;
  EXPECT_EQ(rec.capacity(), 0u);
  TraceEvent ev;
  ev.name = "test.trace.before";
  rec.record(ev);  // disabled: dropped, and no ring to write into
  EXPECT_EQ(rec.recorded_total(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  rec.set_enabled(true);
  EXPECT_EQ(rec.capacity(), TraceRecorder::kDefaultCapacity);
  ev.name = "test.trace.after";
  rec.record(ev);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.trace.after");
  // Re-enabling keeps the ring (and what it holds).
  rec.set_enabled(false);
  rec.set_enabled(true);
  EXPECT_EQ(rec.snapshot().size(), 1u);
}

TEST(ObsTraceRing, ExplicitCapacityBeforeEnableIsKept) {
  TraceRecorder rec;
  rec.set_capacity(100);
  rec.set_enabled(true);
  EXPECT_EQ(rec.capacity(), 128u);
}

TEST_F(ObsTrace, DisabledRecorderIsInert) {
  auto& rec = TraceRecorder::global();
  rec.set_enabled(false);
  { Span s{"test.trace.ignored"}; }
  TraceEvent ev;
  ev.name = "test.trace.direct";
  rec.record(ev);
  EXPECT_EQ(rec.recorded_total(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST_F(ObsTrace, SpanNestingDepths) {
  auto& rec = TraceRecorder::global();
  {
    Span outer{"test.trace.outer"};
    {
      Span mid{"test.trace.mid"};
      Span inner{"test.trace.inner"};
    }
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, const TraceEvent*> by_name;
  for (const auto& ev : events) by_name[ev.name] = &ev;
  ASSERT_EQ(by_name.size(), 3u);
  EXPECT_EQ(by_name.at("test.trace.outer")->depth, 0u);
  EXPECT_EQ(by_name.at("test.trace.mid")->depth, 1u);
  EXPECT_EQ(by_name.at("test.trace.inner")->depth, 2u);
  // Spans close inside-out; the outer span must cover the inner one.
  const auto* outer = by_name.at("test.trace.outer");
  const auto* inner = by_name.at("test.trace.inner");
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_GE(outer->start_ns + outer->duration_ns,
            inner->start_ns + inner->duration_ns);
}

TEST_F(ObsTrace, CapacityRoundsUpToPowerOfTwo) {
  auto& rec = TraceRecorder::global();
  rec.set_capacity(5);
  EXPECT_EQ(rec.capacity(), 16u);  // floor is 16
  rec.set_capacity(17);
  EXPECT_EQ(rec.capacity(), 32u);
  rec.set_capacity(64);
  EXPECT_EQ(rec.capacity(), 64u);
}

TEST_F(ObsTrace, RingBufferKeepsNewestWindow) {
  auto& rec = TraceRecorder::global();
  rec.set_capacity(16);
  constexpr std::uint64_t kTotal = 100;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    TraceEvent ev;
    ev.name = "test.trace.wrap";
    ev.start_ns = i;  // encode the sequence number in start_ns
    rec.record(ev);
  }
  EXPECT_EQ(rec.recorded_total(), kTotal);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Oldest-first: the retained window is exactly the last 16 records.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ns, kTotal - 16 + i);
  }
}

TEST_F(ObsTrace, ChromeTraceJsonShape) {
  auto& rec = TraceRecorder::global();
  { Span s{"test.trace.json_span"}; }
  const std::string json = rec.chrome_trace_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete events
  EXPECT_NE(json.find("test.trace.json_span"), std::string::npos);

  const std::string path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(fpsq::obs::write_trace_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_FALSE(buf.str().empty());
  EXPECT_EQ(buf.str().front(), '{');
}

TEST_F(ObsTrace, ResetRestartsEpochAndDropsEvents) {
  auto& rec = TraceRecorder::global();
  { Span s{"test.trace.pre_reset"}; }
  EXPECT_EQ(rec.recorded_total(), 1u);
  rec.reset();
  EXPECT_EQ(rec.recorded_total(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  { Span s{"test.trace.post_reset"}; }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.trace.post_reset");
}

}  // namespace
