// serve::Server: admission control (bounded queue, shed responses),
// batching, admission-order responses, and drain semantics. The server
// runs no thread of its own: nothing executes until execute_admitted()
// or drain(), so every test controls exactly what forms a batch.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace fpsq {
namespace {

using serve::Server;
using serve::ServerOptions;
using serve::Sink;

/// In-memory sink standing in for a connection.
class CollectSink : public Sink {
 public:
  void write_line(const std::string& line) override {
    lines_.push_back(line);
  }

  std::vector<std::string> lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

std::string error_code_of(const std::string& response) {
  const auto v = obs::json::parse(response);
  if (const auto* e = v.find("error")) return e->string_or("code", "");
  return "";
}

std::string id_of(const std::string& response) {
  const auto v = obs::json::parse(response);
  return v.string_or("id", "");
}

TEST(ServeServer, AnswersEveryAdmittedRequestInOrder) {
  ServerOptions opts;
  opts.max_batch = 4;
  Server server{opts};
  auto sink = std::make_shared<CollectSink>();

  // Nothing runs before drain(): everything lands in one deterministic
  // queue, executed as two chunks (4 + 2).
  for (int i = 0; i < 6; ++i) {
    server.submit_line(
        R"({"id":"r)" + std::to_string(i) + R"(","op":"rtt","gamers":60})",
        sink);
  }
  server.drain();

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(id_of(lines[i]), "r" + std::to_string(i));
    EXPECT_EQ(error_code_of(lines[i]), "");
  }
}

TEST(ServeServer, SnapshotCarriesEveryMetricPerfbenchReads) {
  // perfbench/run.py and its replay read these names and take a missing
  // one as 0, so a rename would silently zero a benchmark metric.
#ifdef FPSQ_NO_METRICS
  GTEST_SKIP() << "metrics compiled out";
#else
  ServerOptions opts;
  opts.max_queue = 4;
  Server server{opts};
  auto sink = std::make_shared<CollectSink>();
  // Queued before drain(), so they run as one batch: a duplicate
  // (a SolverCache hit), jittered ticks (giek1), an already expired deadline
  // (timeout), and a fifth line past the admission bound (shed).
  server.submit_line(R"({"id":"a","op":"rtt","gamers":60})", sink);
  server.submit_line(R"({"id":"b","op":"rtt","gamers":60})", sink);
  server.submit_line(
      R"({"id":"c","op":"rtt","gamers":60,"scenario":{"jitter":0.07}})",
      sink);
  server.submit_line(
      R"({"id":"d","op":"rtt","gamers":70,"deadline_ms":1e-6})", sink);
  server.submit_line(R"({"id":"e","op":"rtt"})", sink);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.drain();
  ASSERT_EQ(sink->lines().size(), 5u);

  obs::ensure_baseline_schema();  // as `fpsq serve --metrics-out` does
  const auto snap = obs::MetricsRegistry::global().snapshot();
  std::vector<std::string> names;
  for (const auto& c : snap.counters) names.push_back(c.name);
  for (const auto& g : snap.gauges) names.push_back(g.name);
  for (const auto& h : snap.histograms) names.push_back(h.name);
  for (const char* want :
       {"queueing.kernel.closed_form_hits", "queueing.kernel.tail_evals",
        "queueing.kernel.newton_iters", "queueing.cache.dek1.hits",
        "queueing.cache.dek1.misses", "queueing.cache.giek1.hits",
        "queueing.cache.giek1.misses", "queueing.cache.entries",
        "par.pool.busy_s", "par.pool.queue_high_water",
        "serve.request_latency_ms", "serve.batch_size",
        "serve.queue_depth_peak", "serve.shed", "serve.timeouts",
        "serve.write_errors"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
#endif
}

TEST(ServeServer, FullQueueShedsDeterministically) {
  ServerOptions opts;
  opts.max_queue = 2;
  Server server{opts};
  auto sink = std::make_shared<CollectSink>();

  // Nothing executes between submits, so the queue cannot move: the
  // third submit must bounce off the admission bound.
  server.submit_line(R"({"id":"a","op":"rtt"})", sink);
  server.submit_line(R"({"id":"b","op":"rtt"})", sink);
  server.submit_line(R"({"id":"c","op":"rtt"})", sink);

  // The shed response is written synchronously at admission time.
  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "c");
  EXPECT_EQ(error_code_of(lines[0]), "shed");

  server.drain();
  lines = sink->lines();
  ASSERT_EQ(lines.size(), 3u);  // shed + the two admitted
  EXPECT_EQ(error_code_of(lines[1]), "");
  EXPECT_EQ(error_code_of(lines[2]), "");
}

TEST(ServeServer, ExecuteAdmittedAnswersTheBacklogAndKeepsAdmitting) {
  // One pass of the poll loop: execute_admitted() answers the backlog,
  // which frees the admission bound for the next pass's lines.
  ServerOptions opts;
  opts.max_queue = 1;
  Server server{opts};
  auto sink = std::make_shared<CollectSink>();
  server.submit_line(R"({"id":"a","op":"rtt"})", sink);
  server.execute_admitted();
  ASSERT_EQ(sink->lines().size(), 1u);
  server.submit_line(R"({"id":"b","op":"rtt"})", sink);
  server.execute_admitted();

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(id_of(lines[0]), "a");
  EXPECT_EQ(id_of(lines[1]), "b");
  EXPECT_EQ(error_code_of(lines[1]), "");
}

TEST(ServeServer, SubmitAfterCloseIsShed) {
  Server server;
  auto sink = std::make_shared<CollectSink>();
  server.drain();  // closes admission
  server.submit_line(R"({"id":"late","op":"rtt"})", sink);
  server.drain();

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "late");
  EXPECT_EQ(error_code_of(lines[0]), "shed");
}

TEST(ServeServer, EmptyLinesAreIgnored) {
  Server server;
  auto sink = std::make_shared<CollectSink>();
  server.submit_line("", sink);
  server.submit_line("   ", sink);
  server.submit_line("\t", sink);
  server.drain();
  EXPECT_TRUE(sink->lines().empty());
}

TEST(ServeServer, MalformedLineGetsBadRequestResponse) {
  Server server;
  auto sink = std::make_shared<CollectSink>();
  server.submit_line("{broken", sink);
  server.drain();

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(error_code_of(lines[0]), "bad_request");
}

TEST(ServeServer, DefaultDeadlineAppliesToBareRequests) {
  ServerOptions opts;
  opts.default_deadline_ms = 1e9;  // effectively infinite: must NOT trip
  Server server{opts};
  auto sink = std::make_shared<CollectSink>();
  server.submit_line(R"({"id":"d","op":"rtt"})", sink);
  server.drain();

  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(error_code_of(lines[0]), "");
}

TEST(ServeServer, DrainIsIdempotent) {
  Server server;
  auto sink = std::make_shared<CollectSink>();
  server.submit_line(R"({"id":"x","op":"rtt"})", sink);
  server.drain();
  server.drain();  // second drain must be a no-op, not a crash
  EXPECT_EQ(sink->lines().size(), 1u);
}

TEST(ServeServer, DestructorDrains) {
  auto sink = std::make_shared<CollectSink>();
  {
    Server server;
    server.submit_line(R"({"id":"dtor","op":"rtt"})", sink);
  }  // ~Server drains: the admitted request must still be answered
  const auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "dtor");
}

TEST(ServeServer, OptionsClampToSaneMinimums) {
  ServerOptions opts;
  opts.max_queue = 0;
  opts.max_batch = 0;
  Server server{opts};
  EXPECT_GE(server.options().max_queue, 1u);
  EXPECT_GE(server.options().max_batch, 1u);
}

// ---- regression: client disconnect mid-response (ISSUE 10 satellite) ---
//
// Writing a response to a pipe whose read end is gone raises SIGPIPE
// (default action: kill the process) and fails with EPIPE. The sink
// must survive that — mask the signal around the write, mark itself
// dead, count serve.write_errors — so one dropped TCP connection can
// neither crash the front end nor steal responses from other clients.

TEST(ServeServer, WriteToClosedPipeDoesNotCrash) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);  // receiver hangs up before any response
#ifndef FPSQ_NO_METRICS
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
#endif
  serve::FdSink sink(fds[1], /*close_on_destroy=*/true);
  EXPECT_FALSE(sink.dead());
  sink.write_line(R"({"id":"gone","ok":true})");  // EPIPE, not SIGPIPE
  EXPECT_TRUE(sink.dead());
  sink.write_line("ignored");  // dead sink: no syscall, still no crash
  EXPECT_TRUE(sink.dead());
#ifndef FPSQ_NO_METRICS
  std::uint64_t write_errors = 0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.name == "serve.write_errors") write_errors = c.value;
  }
  EXPECT_EQ(write_errors, 1u);  // the no-op repeat is not re-counted
#endif
}

TEST(ServeServer, PartialWritesDeliverWholeLine) {
  // A pipe with a tiny capacity forces write() to return short counts;
  // the sink must loop until the whole line (plus newline) is out.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
  (void)::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
  const std::string line(3000, 'x');
  serve::FdSink sink(fds[1], /*close_on_destroy=*/true);
  std::string got;
  std::thread reader([&] {
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(fds[0], buf, sizeof buf);
      if (n <= 0) break;
      got.append(buf, static_cast<std::size_t>(n));
      if (got.size() >= line.size() + 1) break;
    }
  });
  sink.write_line(line);
  reader.join();
  ::close(fds[0]);
  EXPECT_FALSE(sink.dead());
  EXPECT_EQ(got, line + "\n");
}

TEST(ServeServer, DeadConnectionDoesNotStarveOthers) {
  // Two connections in one batch; one hangs up. The other must still
  // receive its response and the server must keep going.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  auto dead_sink = std::make_shared<serve::FdSink>(fds[1], true);
  auto live_sink = std::make_shared<CollectSink>();
  Server server;
  server.submit_line(R"({"id":"d","op":"rtt"})", dead_sink);
  server.submit_line(R"({"id":"l","op":"rtt"})", live_sink);
  server.drain();
  const auto lines = live_sink->lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(id_of(lines[0]), "l");
  EXPECT_TRUE(dead_sink->dead());
}

}  // namespace
}  // namespace fpsq
