// fpsq::serve — the long-running front end behind `fpsq serve`:
// admission control + batching around serve::Engine, run by one poll
// loop on one thread.
//
// Structure (see docs/SERVING.md):
//
//   poll(stop pipe, listen socket, stdin or every open connection)
//   read whatever is ready; for each complete line, submit_line():
//     parse_request(), stamp
//     queue full? -> shed response, written now
//     else admit {request, sink}
//   execute_admitted(): Engine::execute() in chunks of max_batch,
//     each response written to its item's sink
//   poll again
//
// There is no gather window: a batch is the backlog that built up while
// the previous one ran. The par pool still evaluates a batch's requests
// in parallel, so the process runs the loop plus the pool's workers and
// no other thread, however many connections it serves.
//
// Admission control: the request queue is bounded (ServerOptions::
// max_queue). A line read while the queue is full is answered at once
// with a `shed` error — the server degrades by shedding load, it never
// grows without bound. Each admitted request is stamped and may carry a
// deadline (its own, or ServerOptions::default_deadline_ms); expired
// requests are answered with `deadline_exceeded` instead of being
// executed.
//
// Drain: EOF on stdin, or SIGTERM/SIGINT in either front end, stops
// reading; drain() closes admission, executes and answers everything
// admitted; lines an open connection still has buffered are then read
// and answered `shed` (closing a socket with unread input would reset
// it and could discard answers not yet read), and the front end exits 0.
//
// Ordering: responses on one sink are written in admission order. Shed
// responses are written when their line is read and may therefore
// precede the responses of earlier admitted requests.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.h"
#include "serve/request.h"

namespace fpsq::serve {

/// One response channel. write_line() appends the newline.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write_line(const std::string& line) = 0;
};

/// Sink over a file descriptor. With close_on_destroy, the fd is closed
/// when the last shared_ptr owner lets go — which in the socket front
/// end is after the loop dropped the connection AND its last admitted
/// response was written.
///
/// A peer that disconnects mid-response (EPIPE/ECONNRESET on a TCP
/// connection, a closed stdout pipe) must not take the process with it:
/// write_line() blocks SIGPIPE around the write, retries short writes,
/// and on a hard error counts serve.write_errors and marks the sink dead
/// so the remaining responses for this connection are dropped without
/// touching the fd again. Responses for other connections in the same
/// batch are unaffected.
class FdSink : public Sink {
 public:
  explicit FdSink(int fd, bool close_on_destroy = false)
      : fd_(fd), close_(close_on_destroy) {}
  ~FdSink() override;
  void write_line(const std::string& line) override;

  /// True once a write failed (receiver gone); later writes are no-ops.
  [[nodiscard]] bool dead() const noexcept { return dead_; }

 private:
  int fd_;
  bool close_;
  bool dead_ = false;
};

struct ServerOptions {
  EngineOptions engine;
  std::size_t max_queue = 1024;  ///< admission bound (>= 1)
  std::size_t max_batch = 64;    ///< Engine::execute chunk cap (>= 1)
  /// Deadline applied to requests that do not carry their own; 0 = none.
  double default_deadline_ms = 0.0;
};

/// Admission queue + engine. Not thread-safe: the poll loop (or a test)
/// calls it from one thread.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  ///< drain()s

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Parses + admits one request line (empty lines are ignored); answers
  /// shed and parse failures through `sink` at once.
  void submit_line(const std::string& line, std::shared_ptr<Sink> sink);

  /// Executes everything admitted so far through Engine::execute, in
  /// chunks of max_batch, and writes each response to its sink.
  void execute_admitted();

  /// Stops admission (later submits are shed) and executes everything
  /// admitted: every admitted request is answered when this returns.
  /// Idempotent.
  void drain();

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Item {
    ParsedRequest parsed;
    std::shared_ptr<Sink> sink;
  };

  ServerOptions options_;
  Engine engine_;
  std::vector<Item> queue_;
  bool closed_ = false;
};

/// `fpsq serve --stdin`: requests from stdin, responses to stdout,
/// graceful drain on EOF or SIGTERM/SIGINT. Returns the process exit
/// code (0 on a clean or signal-initiated drain).
int run_stdio(const ServerOptions& options);

/// `fpsq serve --listen PORT`: accepts connections on 127.0.0.1:PORT and
/// serves them all from the one loop, each connection's responses back
/// on it in admission order. Drains on SIGTERM/SIGINT.
int run_listen(int port, const ServerOptions& options);

}  // namespace fpsq::serve
