#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "obs/json.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kNever = -1.0;
/// A served number may differ from the cold evaluation in its last digits:
/// the SolverCache shares one solution between parameter sets that agree
/// to 44 mantissa bits, so a warm server can return the solve of a
/// neighbouring key. Such responses pass and are counted (ulp_diffs); any
/// larger difference fails the request.
constexpr double kRelTolerance = 1e-12;
/// The sender sleeps until this long before a send is due, then polls
/// without sleeping: a timer wake-up can run late by milliseconds on a
/// virtualized host.
constexpr double kSpin = 0.002;
/// Replies still missing this long [s] after the last send count as lost.
constexpr double kReplyTimeout = 60.0;

/// One client connection: non-blocking socket plus its unsent bytes and
/// partial response line.
struct Conn {
  int fd = -1;
  std::string out;
  std::string in;
};

/// Closes every socket on scope exit, including the exception paths.
struct ConnSet {
  std::vector<Conn> conns;
  ~ConnSet() {
    for (const Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                             ": " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Acknowledges received data at once. The server writes each response
/// without TCP_NODELAY, so under Nagle its next response waits for this
/// ACK; a delayed ACK (up to 40 ms on Linux) would otherwise be measured
/// as server latency.
void quick_ack(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

/// Writes as much of c.out as the socket takes.
void flush(Conn& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      throw std::runtime_error("send: " + std::string(strerror(errno)));
    }
  }
}

/// Request index of a response line `{"id":"r<index>",...`, or -1.
long response_index(const std::string& line) {
  static const std::string kPrefix = "{\"id\":\"r";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  long v = 0;
  std::size_t i = kPrefix.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return -1;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + (line[i] - '0');
  }
  return i < line.size() && line[i] == '"' ? v : -1;
}

/// Why a reply does not count as a correct response ("" when it does).
std::string classify(const std::string& line, std::size_t index) {
  fpsq::obs::json::Value v;
  try {
    v = fpsq::obs::json::parse(line);
  } catch (const std::exception&) {
    return "malformed";
  }
  if (v.string_or("id", "") != "r" + std::to_string(index)) return "wrong";
  const auto* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool()) return "malformed";
  if (!ok->boolean) {
    const auto* e = v.find("error");
    const std::string code = e != nullptr ? e->string_or("code", "") : "";
    if (code == fpsq::serve::kShed) return "shed";
    if (code == fpsq::serve::kDeadlineExceeded) return "deadline";
    return "error";
  }
  const auto* result = v.find("result");
  if (result == nullptr || !result->is_object()) return "malformed";
  const std::string op = v.string_or("op", "");
  if (op == "rtt") {
    const double q = result->number_or("rtt_quantile_ms", std::nan(""));
    const auto* b = result->find("breakdown");
    const double det =
        b != nullptr ? b->number_or("deterministic_ms", std::nan(""))
                     : std::nan("");
    if (!std::isfinite(q) || !std::isfinite(det) || q < det) return "wrong";
  } else if (op == "dimension") {
    const double rho = result->number_or("rho_max", std::nan(""));
    if (!(rho > 0.0 && rho < 1.0)) return "wrong";
  } else if (op == "sweep") {
    const auto* pts = result->find("points");
    if (pts == nullptr || !pts->is_array() || pts->array.empty()) {
      return "wrong";
    }
  } else {
    return "wrong";
  }
  return "";
}

bool same_within(const fpsq::obs::json::Value& a,
                 const fpsq::obs::json::Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case fpsq::obs::json::Value::Type::kNumber:
      return std::fabs(a.number - b.number) <=
             kRelTolerance * std::max(std::fabs(a.number), std::fabs(b.number));
    case fpsq::obs::json::Value::Type::kArray:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!same_within(a.array[i], b.array[i])) return false;
      }
      return true;
    case fpsq::obs::json::Value::Type::kObject:
      if (a.object.size() != b.object.size()) return false;
      for (std::size_t i = 0; i < a.object.size(); ++i) {
        if (a.object[i].first != b.object[i].first ||
            !same_within(a.object[i].second, b.object[i].second)) {
          return false;
        }
      }
      return true;
    default:
      return a.boolean == b.boolean && a.string == b.string;
  }
}

/// True when two response lines have the same structure, strings and
/// flags and every number agrees to kRelTolerance.
bool same_within(const std::string& a, const std::string& b) {
  try {
    return same_within(fpsq::obs::json::parse(a), fpsq::obs::json::parse(b));
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string run_load(const std::vector<std::string>& requests,
                     const LoadOptions& opt) {
  const std::size_t n = requests.size();
  if (n == 0) throw std::runtime_error("no requests");
  const std::vector<double> due = poisson_schedule(opt.seed, opt.rate, n);
  // Sub-microsecond timer slack: the default 50 us would show up as
  // generator lateness on every sleep.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  ConnSet set;
  for (int c = 0; c < opt.connections; ++c) {
    set.conns.push_back({connect_loopback(opt.port), {}, {}});
  }
  std::vector<double> sent(n, kNever), received(n, kNever);
  std::vector<std::string> reply(n);
  std::size_t next = 0, replies = 0;
  const double t0 = now_s() + 0.005;
  std::vector<pollfd> fds(set.conns.size());
  char buf[65536];

  for (;;) {
    double now = now_s();
    while (next < n && t0 + due[next] <= now) {
      Conn& c = set.conns[next % set.conns.size()];
      c.out += requests[next];
      c.out += '\n';
      sent[next] = now;
      flush(c);
      ++next;
      now = now_s();
    }
    if (next == n && replies == n) break;
    if (next == n && now > t0 + due[n - 1] + kReplyTimeout) break;

    for (std::size_t c = 0; c < set.conns.size(); ++c) {
      fds[c] = {set.conns[c].fd,
                static_cast<short>(POLLIN |
                                   (set.conns[c].out.empty() ? 0 : POLLOUT)),
                0};
    }
    const double wait =
        next < n ? std::max(0.0, t0 + due[next] - now - kSpin) : 0.05;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll: " + std::string(strerror(errno)));
    }
    if (ready <= 0) continue;
    const double at = now_s();
    for (std::size_t c = 0; c < set.conns.size(); ++c) {
      Conn& conn = set.conns[c];
      if (fds[c].revents & POLLOUT) flush(conn);
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buf, sizeof buf, 0);
        if (got > 0) {
          conn.in.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("connection closed by the server");
      }
      quick_ack(conn.fd);
      std::size_t start = 0, eol;
      while ((eol = conn.in.find('\n', start)) != std::string::npos) {
        std::string line = conn.in.substr(start, eol - start);
        start = eol + 1;
        const long idx = response_index(line);
        if (idx < 0 || static_cast<std::size_t>(idx) >= n ||
            received[static_cast<std::size_t>(idx)] != kNever) {
          continue;  // unknown or duplicate id: counted as unanswered
        }
        received[static_cast<std::size_t>(idx)] = at;
        reply[static_cast<std::size_t>(idx)] = std::move(line);
        ++replies;
      }
      conn.in.erase(0, start);
    }
  }

  // ---- checks ------------------------------------------------------------
  std::size_t no_reply = 0, shed = 0, deadline = 0, error = 0, wrong = 0,
              mismatch = 0, correct = 0;
  std::vector<bool> ok(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (received[i] == kNever) {
      ++no_reply;
      continue;
    }
    const std::string why = classify(reply[i], i);
    if (why.empty()) {
      ok[i] = true;
    } else if (why == "shed") {
      ++shed;
    } else if (why == "deadline") {
      ++deadline;
    } else if (why == "error") {
      ++error;
    } else {
      ++wrong;
    }
  }
  // Compare a seeded sample of the ok responses with cold in-process
  // evaluations (after the load, so it perturbs nothing).
  const fpsq::serve::Engine engine;
  Rng pick(opt.seed ^ 0x636865636bULL);
  std::size_t checked = 0, ulp_diffs = 0;
  for (std::size_t tries = 0; checked < opt.check_sample && tries < 4 * n;
       ++tries) {
    const std::size_t i = pick.next() % n;
    if (!ok[i]) continue;
    ++checked;
    const auto parsed = fpsq::serve::parse_request(requests[i]);
    fpsq::queueing::SolverCache::global().clear();
    const std::string expected =
        parsed.ok ? engine.execute_one(parsed.request) : parsed.error;
    if (expected == reply[i]) continue;
    const bool close = same_within(expected, reply[i]);
    if (close) {
      ++ulp_diffs;
    } else {
      ok[i] = false;
      ++mismatch;
    }
    if (ulp_diffs + mismatch <= 3) {
      std::fprintf(stderr, "%s on %s\n  served: %s\n  cold:   %s\n",
                   close ? "last-digit difference" : "mismatch",
                   requests[i].c_str(), reply[i].c_str(), expected.c_str());
    }
  }
  for (std::size_t i = 0; i < n; ++i) correct += ok[i] ? 1 : 0;

  std::vector<double> latency_ms(n), late_ms(n);
  double first_send = std::numeric_limits<double>::infinity();
  double last_reply = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double scheduled = t0 + due[i];
    // A failed request ranks slower than every success.
    latency_ms[i] = ok[i] ? 1e3 * (received[i] - scheduled)
                          : std::numeric_limits<double>::infinity();
    late_ms[i] = sent[i] == kNever ? 0.0 : 1e3 * (sent[i] - scheduled);
    if (sent[i] != kNever) first_send = std::min(first_send, sent[i]);
    if (received[i] != kNever) last_reply = std::max(last_reply, received[i]);
  }
  std::unordered_set<std::string> keys;
  for (std::size_t i = 0; i < n; ++i) {
    const auto parsed = fpsq::serve::parse_request(requests[i]);
    keys.insert(parsed.ok ? parsed.request.work_key() : requests[i]);
  }
  const double span = last_reply - first_send;
  JsonObject reasons;
  reasons.num("no_reply", static_cast<double>(no_reply))
      .num("shed", static_cast<double>(shed))
      .num("deadline", static_cast<double>(deadline))
      .num("error", static_cast<double>(error))
      .num("wrong", static_cast<double>(wrong))
      .num("mismatch", static_cast<double>(mismatch));
  JsonObject out;
  out.num("sent", static_cast<double>(n))
      .num("answered", static_cast<double>(n - no_reply))
      .num("correct", static_cast<double>(correct))
      .num("failed", static_cast<double>(n - correct))
      .raw("fail_reasons", reasons.str())
      .num("checked", static_cast<double>(checked))
      .num("ulp_diffs", static_cast<double>(ulp_diffs))
      .num("offered_rps", static_cast<double>(n) / due.back())
      .num("p50_ms", percentile(latency_ms, 0.50))
      .num("p99_ms", percentile(latency_ms, 0.99))
      .num("throughput_rps", span > 0.0 ? static_cast<double>(correct) / span
                                        : 0.0)
      .num("within_25ms", static_cast<double>(std::count_if(
                              latency_ms.begin(), latency_ms.end(),
                              [](double ms) { return ms <= 25.0; })) /
                              static_cast<double>(n))
      .num("late_p50_ms", percentile(late_ms, 0.50))
      .num("late_p99_ms", percentile(late_ms, 0.99))
      .num("repeat_share", static_cast<double>(n - keys.size()) /
                               static_cast<double>(n));
  return out.str();
}

}  // namespace perfbench
