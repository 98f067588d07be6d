#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/metrics.h"

namespace fpsq::serve {

// ---- FdSink ---------------------------------------------------------------

FdSink::~FdSink() {
  if (close_ && fd_ >= 0) ::close(fd_);
}

void FdSink::write_line(const std::string& line) {
  if (dead_) return;
  // Writing to a pipe/socket whose reader is gone raises SIGPIPE, whose
  // default action kills the whole process — every other connection
  // included. Block it for this thread around the write so the failure
  // surfaces as EPIPE instead, and consume the pending signal before
  // restoring the mask.
  sigset_t pipe_set;
  sigset_t old_set;
  ::sigemptyset(&pipe_set);
  ::sigaddset(&pipe_set, SIGPIPE);
  const bool masked =
      ::pthread_sigmask(SIG_BLOCK, &pipe_set, &old_set) == 0;
  std::string buf = line;
  buf += '\n';
  std::size_t off = 0;
  bool failed = false;
  while (off < buf.size()) {
    // Short writes are normal on sockets under backpressure: keep
    // writing from the first unsent byte until the line is out.
    const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Receiver gone (EPIPE, ECONNRESET) or the fd went bad: this
      // connection's remaining responses are undeliverable, but the
      // server must keep serving everyone else.
      failed = true;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (masked) {
    if (failed && errno == EPIPE) {
      struct timespec zero = {0, 0};
      while (::sigtimedwait(&pipe_set, nullptr, &zero) >= 0) {
      }
    }
    ::pthread_sigmask(SIG_SETMASK, &old_set, nullptr);
  }
  if (failed) {
    FPSQ_OBS_COUNT("serve.write_errors");
    dead_ = true;
  }
}

// ---- Server ---------------------------------------------------------------

Server::Server(ServerOptions options) : options_(options), engine_(options.engine) {
  if (options_.max_queue == 0) options_.max_queue = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
}

Server::~Server() { drain(); }

void Server::submit_line(const std::string& line,
                         std::shared_ptr<Sink> sink) {
  if (line.find_first_not_of(" \t\r\n") == std::string::npos) return;
  FPSQ_OBS_COUNT("serve.requests");
  ParsedRequest parsed = parse_request(line);
  parsed.request.admitted_at = std::chrono::steady_clock::now();
  if (parsed.ok && parsed.request.deadline_ms <= 0.0) {
    parsed.request.deadline_ms = options_.default_deadline_ms;
  }
  if (!closed_ && queue_.size() < options_.max_queue) {
    queue_.push_back(Item{std::move(parsed), std::move(sink)});
    FPSQ_OBS_GAUGE_SET("serve.queue_depth",
                       static_cast<double>(queue_.size()));
    FPSQ_OBS_GAUGE_MAX("serve.queue_depth_peak",
                       static_cast<double>(queue_.size()));
    return;
  }
  // Queue full (or input already closed): shed, answered right away.
  FPSQ_OBS_COUNT("serve.shed");
  FPSQ_OBS_COUNT("serve.responses");
  sink->write_line(error_response(
      parsed.id, kShed,
      "server overloaded: request queue is full or draining"));
}

void Server::execute_admitted() {
  std::vector<Item> admitted;
  admitted.swap(queue_);
  std::vector<ParsedRequest> batch;
  for (std::size_t begin = 0; begin < admitted.size();
       begin += options_.max_batch) {
    const std::size_t end =
        std::min(admitted.size(), begin + options_.max_batch);
    FPSQ_OBS_GAUGE_SET("serve.queue_depth",
                       static_cast<double>(admitted.size() - end));
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(std::move(admitted[i].parsed));
    }
    const auto responses = engine_.execute(batch);
    for (std::size_t i = begin; i < end; ++i) {
      admitted[i].sink->write_line(responses[i - begin]);
    }
  }
}

void Server::drain() {
  closed_ = true;
  execute_admitted();
}

// ---- CLI front ends -------------------------------------------------------

namespace {

// Self-pipe drain signalling: the SIGTERM/SIGINT handler writes one byte
// to a pipe the loop poll()s alongside its inputs, so a loop blocked in
// poll() wakes whichever thread the signal was delivered to.
std::atomic<int> g_stop_pipe_wr{-1};

void drain_signal_handler(int) {
  const int fd = g_stop_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// RAII: self-pipe + SIGTERM/SIGINT handlers for the lifetime of a serve
/// front end; restores the previous handlers on destruction.
class DrainSignals {
 public:
  DrainSignals() {
    if (::pipe(pipe_fds_) != 0) {
      pipe_fds_[0] = pipe_fds_[1] = -1;
      return;
    }
    g_stop_pipe_wr.store(pipe_fds_[1], std::memory_order_relaxed);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = drain_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls return EINTR
    ::sigaction(SIGTERM, &sa, &old_term_);
    ::sigaction(SIGINT, &sa, &old_int_);
    // A client disconnecting mid-response must surface as EPIPE on the
    // write (handled per-sink), never as a process-killing SIGPIPE.
    // FdSink::write_line also masks it around its write; ignoring it for
    // the front end's lifetime covers every other incidental write.
    struct sigaction ign;
    std::memset(&ign, 0, sizeof ign);
    ign.sa_handler = SIG_IGN;
    ::sigemptyset(&ign.sa_mask);
    ::sigaction(SIGPIPE, &ign, &old_pipe_);
    installed_ = true;
  }

  ~DrainSignals() {
    if (installed_) {
      ::sigaction(SIGTERM, &old_term_, nullptr);
      ::sigaction(SIGINT, &old_int_, nullptr);
      ::sigaction(SIGPIPE, &old_pipe_, nullptr);
    }
    g_stop_pipe_wr.store(-1, std::memory_order_relaxed);
    if (pipe_fds_[0] >= 0) ::close(pipe_fds_[0]);
    if (pipe_fds_[1] >= 0) ::close(pipe_fds_[1]);
  }

  /// Read end of the self-pipe; readable once a drain was requested.
  [[nodiscard]] int stop_fd() const noexcept { return pipe_fds_[0]; }

 private:
  int pipe_fds_[2] = {-1, -1};
  struct sigaction old_term_{};
  struct sigaction old_int_{};
  struct sigaction old_pipe_{};
  bool installed_ = false;
};

/// One request stream (stdin or a connection): its fd, the sink its
/// responses go to, and the bytes after the last newline read so far.
struct Input {
  int fd;
  std::shared_ptr<FdSink> sink;
  std::string pending;
  bool open = true;
};

/// Submits an unterminated last line, once the stream has ended.
void submit_rest(Input& in, Server& server) {
  if (!in.pending.empty()) server.submit_line(in.pending, in.sink);
  in.pending.clear();
}

/// Appends `n` bytes read from the stream and submits every complete
/// line (a trailing '\r' stripped).
void submit_lines(Input& in, Server& server, const char* bytes,
                  std::size_t n) {
  const std::size_t scanned = in.pending.size();  // holds no newline
  in.pending.append(bytes, n);
  std::size_t begin = 0;
  for (std::size_t nl = in.pending.find('\n', scanned);
       nl != std::string::npos; nl = in.pending.find('\n', begin)) {
    const std::size_t end =
        nl > begin && in.pending[nl - 1] == '\r' ? nl - 1 : nl;
    server.submit_line(in.pending.substr(begin, end - begin), in.sink);
    begin = nl + 1;
  }
  in.pending.erase(0, begin);
}

/// One read() of a stream poll() reported ready. At EOF or on a read
/// error, submits the unterminated rest and marks the stream closed.
void read_lines(Input& in, Server& server) {
  char chunk[65536];
  const ssize_t n = ::read(in.fd, chunk, sizeof chunk);
  if (n < 0 && errno == EINTR) return;
  if (n <= 0) {
    submit_rest(in, server);
    in.open = false;
    return;
  }
  submit_lines(in, server, chunk, static_cast<std::size_t>(n));
}

/// After drain(): closing a socket that still holds unread input resets
/// the connection, which can discard answers its client has not read
/// yet. So read what the connection already buffered, without waiting,
/// and submit it; admission is closed, so every line (and the
/// unterminated rest) is answered `shed`, after the answers the drain
/// wrote. recv() fails on a non-socket stdin, which leaves it as it is.
void shed_buffered(Input& in, Server& server) {
  char chunk[65536];
  ssize_t n;
  while ((n = ::recv(in.fd, chunk, sizeof chunk, MSG_DONTWAIT)) > 0) {
    submit_lines(in, server, chunk, static_cast<std::size_t>(n));
  }
  submit_rest(in, server);
}

/// The loop both front ends share (structure in server.h). Each pass
/// polls the stop pipe, the listen socket (listen_fd >= 0 only; poll
/// skips a negative fd) and every open input, reads what is ready,
/// executes everything admitted and only then polls again. Without a
/// listen socket it ends once every input reached EOF. A drain request
/// ends it at once; either way everything admitted is answered before
/// it returns, and input still buffered on an open stream is answered
/// `shed` after that.
void serve_loop(Server& server, int stop_fd, int listen_fd,
                std::vector<Input> inputs) {
  std::vector<struct pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back({stop_fd, POLLIN, 0});
    fds.push_back({listen_fd, POLLIN, 0});
    for (const Input& in : inputs) fds.push_back({in.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;  // the stop pipe decides, not EINTR
      break;
    }
    if (fds[0].revents != 0) break;  // drain requested
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (fds[i + 2].revents != 0) read_lines(inputs[i], server);
    }
    std::erase_if(inputs, [](const Input& in) { return !in.open; });
    if (fds[1].revents != 0) {
      // Non-blocking listen socket: accept until the backlog is empty.
      for (int conn; (conn = ::accept(listen_fd, nullptr, nullptr)) >= 0;) {
        FPSQ_OBS_COUNT("serve.connections");
        inputs.push_back(
            Input{conn, std::make_shared<FdSink>(conn, true), {}});
      }
    }
    server.execute_admitted();
    if (listen_fd < 0 && inputs.empty()) break;  // every input at EOF
  }
  server.drain();  // EOF or signal: answer everything admitted
  for (Input& in : inputs) shed_buffered(in, server);
}

}  // namespace

int run_stdio(const ServerOptions& options) {
  DrainSignals signals;
  Server server(options);
  std::vector<Input> inputs;
  inputs.push_back(
      Input{STDIN_FILENO, std::make_shared<FdSink>(STDOUT_FILENO), {}});
  serve_loop(server, signals.stop_fd(), -1, std::move(inputs));
  return 0;
}

int run_listen(int port, const ServerOptions& options) {
  DrainSignals signals;
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("fpsq serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd, 64) != 0 ||
      ::fcntl(listen_fd, F_SETFL, O_NONBLOCK) != 0) {
    std::perror("fpsq serve: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::printf("fpsq serve: listening on 127.0.0.1:%d\n", port);
  std::fflush(stdout);

  Server server(options);
  serve_loop(server, signals.stop_fd(), listen_fd, {});
  ::close(listen_fd);
  return 0;
}

}  // namespace fpsq::serve
