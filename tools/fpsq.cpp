// fpsq — command-line front end to the library.
//
//   fpsq rtt        --gamers N [scenario flags]       ping-time quantiles
//   fpsq dimension  --bound MS [scenario flags]       max load / gamers
//   fpsq sweep      [scenario flags]                  load sweep (CSV)
//   fpsq serve      [--stdin 1 | --listen PORT]       NDJSON request engine
//   fpsq generate   --game NAME --out FILE [...]      synthetic trace
//   fpsq analyze    --in FILE [--pcap ...]            Section-2.2 stats + K fits
//   fpsq validate   --load RHO [...]                  model vs simulation
//   fpsq profile    [scenario flags]                  telemetry summary
//   fpsq benchdiff  BASELINE.json CURRENT.json        bench regression gate
//
// Every command additionally accepts --metrics-out FILE (metrics JSON),
// --trace-out FILE (Chrome trace JSON) and --timeline-out FILE
// [--timeline-interval-ms N] (fpsq.timeline.v1 time series); see
// docs/OBSERVABILITY.md. Run `fpsq help` or `fpsq help <command>` for
// the full flag list.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.h"
#include "core/report.h"
#include "dist/fitting.h"
#include "err/error.h"
#include "obs/benchcompare.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "reference/validation.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sim/replication.h"
#include "sim/trace_replay.h"
#include "trace/analyzer.h"
#include "trace/pcap.h"
#include "trace/trace_io.h"
#include "traffic/game_profiles.h"
#include "traffic/synthetic.h"

namespace {

using namespace fpsq;

/// Malformed command line: carries the failing subcommand so main() can
/// print that command's usage text next to the message.
class UsageError : public std::runtime_error {
 public:
  UsageError(std::string command, const std::string& what)
      : std::runtime_error(what), command_(std::move(command)) {}
  [[nodiscard]] const std::string& command() const noexcept {
    return command_;
  }

 private:
  std::string command_;
};

/// Strict double parse: the whole token must be a finite number. Unlike
/// the old atof path, "6O", "1e", "" and trailing junk are all errors,
/// never a silent 0.0.
double parse_number(const std::string& cmd, const std::string& flag,
                    const std::string& text) {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last ||
      !std::isfinite(v)) {
    throw UsageError(cmd,
                     "invalid number for --" + flag + ": '" + text + "'");
  }
  return v;
}

/// Strict integer parse; "2.5" and "1e3" are errors, not truncations.
long long parse_integer(const std::string& cmd, const std::string& flag,
                        const std::string& text) {
  long long v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last) {
    throw UsageError(cmd,
                     "invalid integer for --" + flag + ": '" + text + "'");
  }
  return v;
}

/// Execution + observability flags every command accepts.
const char* const kCommonFlags[] = {"threads",      "metrics-out",
                                    "trace-out",    "timeline-out",
                                    "timeline-interval-ms"};

/// Tiny --flag value parser: flags are "--name value" pairs. Numeric
/// access is strict (std::from_chars over the whole token): malformed
/// values raise a UsageError instead of silently reading as 0.
class Args {
 public:
  Args(std::string command, int argc, char** argv, int first)
      : cmd_(std::move(command)) {
    for (int i = first; i < argc; ++i) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || key.size() <= 2) {
        throw UsageError(
            cmd_, "expected --flag value pairs, got '" + key + "'");
      }
      if (i + 1 >= argc) {
        throw UsageError(cmd_, "missing value for --" + key.substr(2));
      }
      values_[key.substr(2)] = argv[++i];
    }
  }

  /// Rejects any flag outside `allowed` plus the common execution /
  /// observability set; the error lists what the command supports.
  void allow_only(const std::vector<std::string>& allowed) const {
    for (const auto& [key, value] : values_) {
      (void)value;
      bool known = std::find(std::begin(kCommonFlags),
                             std::end(kCommonFlags),
                             key) != std::end(kCommonFlags);
      known = known || std::find(allowed.begin(), allowed.end(), key) !=
                           allowed.end();
      if (known) continue;
      std::string msg = "unknown flag --" + key + " (supported:";
      for (const auto& f : allowed) msg += " --" + f;
      for (const auto* f : kCommonFlags) msg += std::string(" --") + f;
      msg += ")";
      throw UsageError(cmd_, msg);
    }
  }

  /// Throws a UsageError for this command.
  [[noreturn]] void fail(const std::string& what) const {
    throw UsageError(cmd_, what);
  }

  /// Range guard: throws a UsageError naming the flag when `ok` is false.
  void require(bool ok, const std::string& flag,
               const std::string& constraint) const {
    if (!ok) fail("--" + flag + " must be " + constraint);
  }

  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return parse_number(cmd_, key, it->second);
  }

  [[nodiscard]] long long integer(const std::string& key,
                                  long long fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return parse_integer(cmd_, key, it->second);
  }

  [[nodiscard]] std::string text(const std::string& key,
                                 const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  /// Comma-separated list flag ("--ks 2,9,20"); empty when absent. An
  /// empty field ("2,,9", a trailing comma, or an empty value) is an
  /// error — it used to parse as a silent 0.
  [[nodiscard]] std::vector<double> numbers(const std::string& key) const {
    std::vector<double> out;
    const auto it = values_.find(key);
    if (it == values_.end()) return out;
    const std::string& text = it->second;
    std::size_t pos = 0;
    while (true) {
      std::size_t comma = text.find(',', pos);
      if (comma == std::string::npos) comma = text.size();
      const std::string field = text.substr(pos, comma - pos);
      if (field.empty()) {
        throw UsageError(
            cmd_, "empty field in --" + key + " list: '" + text + "'");
      }
      out.push_back(parse_number(cmd_, key, field));
      if (comma == text.size()) break;
      pos = comma + 1;
    }
    return out;
  }

 private:
  std::string cmd_;
  std::map<std::string, std::string> values_;
};

/// Applies the global execution flag shared by every command:
///   --threads N   worker count in [0, par::kMaxThreads]; 0 = hardware
///                 concurrency, matching FPSQ_THREADS=0 (default:
///                 FPSQ_THREADS env, else cores)
void apply_execution_flags(const Args& args) {
  if (args.has("threads")) {
    const long long t = args.integer("threads", 0);
    // The zero rule (see par/thread_pool.h): 0 means "pick for me" —
    // set_global_thread_count(0) resolves to default_thread_count(),
    // exactly as FPSQ_THREADS=0 does. It is never a zero-worker pool.
    args.require(t >= 0 && t <= par::kMaxThreads, "threads",
                 "an integer in [0, " + std::to_string(par::kMaxThreads) +
                     "] (0 = hardware concurrency)");
    par::set_global_thread_count(static_cast<unsigned>(t));
  }
  // Record the run configuration in the manifest every exported
  // artifact (metrics snapshot, timeline, report) embeds.
  auto& manifest = obs::RunManifest::current();
  manifest.threads = par::global_thread_count();
  if (args.has("seed")) {
    const long long seed = args.integer("seed", 0);
    if (seed >= 0) {
      manifest.has_seed = true;
      manifest.seed = static_cast<std::uint64_t>(seed);
    }
  }
}

/// The serve request behind an analytic command: the scenario flags and
/// whichever of --gamers/--eps/--bound/--step the command takes, parsed
/// strictly and then checked by serve's own validator. The CLI thus has
/// the defaults and range checks of `fpsq serve`; a violation is a
/// usage error.
serve::Request request_from(const Args& args, serve::Op op) {
  using obs::json::Value;
  const auto number = [&](const char* key) {
    Value v;
    v.type = Value::Type::kNumber;
    v.number = args.number(key, 0.0);
    return v;
  };
  Value op_name;
  op_name.type = Value::Type::kString;
  op_name.string = serve::op_name(op);
  Value scenario;
  scenario.type = Value::Type::kObject;
  for (const char* key : serve::kScenarioKeys) {
    if (args.has(key)) scenario.object.emplace_back(key, number(key));
  }
  Value root;
  root.type = Value::Type::kObject;
  root.object.emplace_back("op", std::move(op_name));
  root.object.emplace_back("scenario", std::move(scenario));
  for (const char* key : {"gamers", "eps", "bound", "step"}) {
    if (args.has(key)) root.object.emplace_back(key, number(key));
  }
  auto parsed = serve::validate_request(root);
  if (!parsed.ok) args.fail(parsed.error);
  return std::move(parsed.request);
}

/// Evaluates `request` with serve::Engine::execute_one, the evaluation
/// `fpsq serve` runs, and returns the response's "result" object. The
/// engine's default 17 significant digits round-trip exactly, so the
/// printed numbers are the library's own doubles. A failed evaluation is
/// rethrown the way the library reports it (exit 1).
obs::json::Value execute(const serve::Request& request) {
  const obs::json::Value response =
      obs::json::parse(serve::Engine{}.execute_one(request));
  if (const obs::json::Value* result = response.find("result")) {
    return *result;
  }
  const obs::json::Value* error = response.find("error");
  if (error == nullptr) throw std::runtime_error("malformed engine response");
  const std::string detail = error->string_or("detail", "");
  if (const auto code = err::code_from_name(error->string_or("code", ""))) {
    err::throw_solver_error({*code, detail});
  }
  throw std::runtime_error(detail);
}

/// A numeric response field; JSON null (a non-finite value) reads as NaN.
double field(const obs::json::Value& v, const char* key) {
  return v.number_or(key, std::nan(""));
}

/// The constraint on a simulated duration: it must outlast the fixed
/// warm-up the simulator discards, or the run has no samples.
std::string past_warmup(double warmup_s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "> %g [s] (the simulation warm-up)",
                warmup_s);
  return buf;
}

void print_scenario(const core::AccessScenario& s) {
  std::printf("# scenario: K=%d T=%.0fms PS=%.0fB PC=%.0fB C=%.1fMb/s "
              "Rup=%.0fk Rdown=%.0fk\n",
              s.erlang_k, s.tick_ms, s.server_packet_bytes,
              s.client_packet_bytes, s.bottleneck_bps / 1e6,
              s.uplink_bps / 1e3, s.downlink_bps / 1e3);
}

int cmd_rtt(const Args& args) {
  const auto req = request_from(args, serve::Op::kRtt);
  const auto r = execute(req);
  const obs::json::Value& b = *r.find("breakdown");
  print_scenario(req.scenario);
  std::printf("gamers %.0f  rho_down %.3f  rho_up %.3f\n", req.gamers,
              field(r, "rho_down"), field(r, "rho_up"));
  std::printf("mean RTT            %8.2f ms\n", field(r, "rtt_mean_ms"));
  std::printf("RTT quantile (%g)  %8.2f ms\n", req.epsilon,
              field(r, "rtt_quantile_ms"));
  std::printf("  deterministic     %8.2f ms\n", field(b, "deterministic_ms"));
  std::printf("  upstream M/D/1    %8.2f ms\n", field(b, "upstream_ms"));
  std::printf("  burst wait        %8.2f ms\n", field(b, "burst_ms"));
  std::printf("  packet position   %8.2f ms\n", field(b, "position_ms"));
  return 0;
}

int cmd_dimension(const Args& args) {
  const auto req = request_from(args, serve::Op::kDimension);
  if (args.has("ks") || args.has("bounds")) {
    // Table-4 grid mode: one copy of the request per (K, bound) cell,
    // all answered by one Engine::execute batch, as `fpsq serve` answers
    // its batches. A cell whose solve fails prints its error code and
    // leaves the other cells alone (see docs/ROBUSTNESS.md). The lists
    // take the same ranges as --k and --bound.
    std::vector<double> ks = args.numbers("ks");
    for (const double k : ks) {
      args.require(k >= 2.0 && k <= 512.0 && k == std::floor(k), "ks",
                   "a list of integers in [2, 512]");
    }
    if (ks.empty()) ks.push_back(req.scenario.erlang_k);
    std::vector<double> bounds = args.numbers("bounds");
    for (const double b : bounds) {
      args.require(b > 0.0, "bounds", "a list of bounds > 0 [ms]");
    }
    if (bounds.empty()) bounds.push_back(req.bound_ms);
    std::vector<serve::ParsedRequest> cells;
    for (const double k : ks) {
      for (const double b : bounds) {
        serve::ParsedRequest cell;
        cell.ok = true;
        cell.request = req;
        cell.request.scenario.erlang_k = static_cast<int>(k);
        cell.request.bound_ms = b;
        cell.request.admitted_at = std::chrono::steady_clock::now();
        cells.push_back(std::move(cell));
      }
    }
    const auto responses = serve::Engine{}.execute(cells);
    print_scenario(req.scenario);
    std::printf("k,bound_ms,max_load,max_gamers,rtt_at_max_ms,status\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const serve::Request& cell = cells[i].request;
      const obs::json::Value response = obs::json::parse(responses[i]);
      if (const obs::json::Value* d = response.find("result")) {
        std::printf("%d,%.0f,%.4f,%d,%.2f,ok\n", cell.scenario.erlang_k,
                    cell.bound_ms, field(*d, "rho_max"),
                    static_cast<int>(field(*d, "n_max_int")),
                    field(*d, "rtt_at_max_ms"));
        continue;
      }
      std::printf("%d,%.0f,,,,failed:%s\n", cell.scenario.erlang_k,
                  cell.bound_ms,
                  response.find("error")->string_or("code", "").c_str());
    }
    return 0;
  }
  const auto d = execute(req);
  print_scenario(req.scenario);
  std::printf("RTT(%g) <= %.0f ms:  max load %.1f%%  max gamers %d  "
              "(RTT at max %.1f ms)\n",
              req.epsilon, req.bound_ms, 100.0 * field(d, "rho_max"),
              static_cast<int>(field(d, "n_max_int")),
              field(d, "rtt_at_max_ms"));
  return 0;
}

int cmd_sweep(const Args& args) {
  const auto req = request_from(args, serve::Op::kSweep);
  const auto r = execute(req);
  print_scenario(req.scenario);
  std::printf("load,gamers,rtt_quantile_ms,rtt_mean_ms,status\n");
  for (const obs::json::Value& p : r.find("points")->array) {
    // "failed" marks a point whose solve failed; its delays read 0.
    std::printf("%.3f,%.1f,%.2f,%.2f,%s\n", field(p, "load"),
                field(p, "gamers"), field(p, "rtt_quantile_ms"),
                field(p, "rtt_mean_ms"), p.string_or("status", "").c_str());
  }
  return 0;
}

/// `fpsq serve`: long-running NDJSON request engine (docs/SERVING.md).
/// Stdin mode is the default; --listen PORT accepts loopback TCP
/// connections instead. Exits 0 on a clean or signal-initiated drain.
int cmd_serve(const Args& args) {
  serve::ServerOptions opt;
  const long long queue = args.integer("queue", 1024);
  args.require(queue >= 1, "queue", "an integer >= 1");
  opt.max_queue = static_cast<std::size_t>(queue);
  const long long batch = args.integer("batch", 64);
  args.require(batch >= 1, "batch", "an integer >= 1");
  opt.max_batch = static_cast<std::size_t>(batch);
  if (args.has("tick-ms")) {
    // Accepted for old command lines; the loop batches the backlog.
    args.require(args.number("tick-ms", 0.0) >= 0.0, "tick-ms", ">= 0 [ms]");
    std::fprintf(stderr,
                 "fpsq serve: --tick-ms has no effect (there is no gather "
                 "window; a batch is the backlog)\n");
  }
  opt.default_deadline_ms = args.number("deadline-ms", 0.0);
  args.require(opt.default_deadline_ms >= 0.0, "deadline-ms", ">= 0 [ms]");
  const long long precision = args.integer("precision", 17);
  args.require(precision >= 1 && precision <= 17, "precision",
               "an integer in [1, 17]");
  opt.engine.precision = static_cast<int>(precision);
  if (args.has("listen")) {
    const long long port = args.integer("listen", 0);
    args.require(port >= 1 && port <= 65535, "listen",
                 "a port in [1, 65535]");
    return serve::run_listen(static_cast<int>(port), opt);
  }
  const long long use_stdin = args.integer("stdin", 1);
  args.require(use_stdin == 1, "stdin", "1 (or use --listen PORT)");
  return serve::run_stdio(opt);
}

traffic::GameProfile profile_by_name(const std::string& name, int players) {
  if (name == "cs" || name == "counterstrike") {
    return traffic::counter_strike();
  }
  if (name == "halflife" || name == "hl") return traffic::half_life();
  if (name == "quake3" || name == "q3") return traffic::quake3(players);
  if (name == "halo") return traffic::halo(players);
  if (name == "ut" || name == "unreal") {
    return traffic::unreal_tournament(players);
  }
  throw std::invalid_argument(
      "unknown game '" + name + "' (use cs|halflife|quake3|halo|ut)");
}

int cmd_generate(const Args& args) {
  const long long players_ll = args.integer("players", 12);
  args.require(players_ll >= 1 && players_ll <= 10000, "players",
               "an integer in [1, 10000]");
  const int players = static_cast<int>(players_ll);
  const auto profile = profile_by_name(args.text("game", "ut"), players);
  traffic::SyntheticTraceOptions opt;
  opt.clients = players;
  opt.duration_s = args.number("duration", 360.0);
  args.require(opt.duration_s > 0.0, "duration", "> 0 [s]");
  const long long seed = args.integer("seed", 1);
  args.require(seed >= 0, "seed", ">= 0");
  opt.seed = static_cast<std::uint64_t>(seed);
  const auto t = traffic::generate_trace(profile, opt);
  const std::string out = args.text("out", "trace.csv");
  trace::write_csv_file(out, t);
  std::printf("%s: %zu packets over %.0f s -> %s\n", profile.name.c_str(),
              t.size(), opt.duration_s, out.c_str());
  return 0;
}

std::uint16_t server_port_from(const Args& args) {
  const long long port = args.integer("server-port", 27015);
  args.require(port >= 1 && port <= 65535, "server-port",
               "an integer in [1, 65535]");
  return static_cast<std::uint16_t>(port);
}

int cmd_analyze(const Args& args) {
  const std::string in = args.text("in");
  args.require(!in.empty(), "in", "given (a trace FILE to analyze)");
  trace::Trace t;
  if (args.has("pcap")) {
    trace::PcapReadOptions popt;
    popt.server.ipv4 =
        trace::ServerEndpoint::parse_ipv4(args.text("server-ip"));
    popt.server.port = server_port_from(args);
    trace::PcapReadStats stats;
    t = trace::read_pcap_file(in, popt, &stats);
    std::printf("# pcap: %llu frames, %llu matched, %llu skipped\n",
                static_cast<unsigned long long>(stats.frames),
                static_cast<unsigned long long>(stats.udp_matched),
                static_cast<unsigned long long>(stats.skipped));
  } else {
    t = trace::read_csv_file(in);
  }
  trace::AnalyzerOptions a;
  a.gap_threshold_s = args.number("gap-ms", 8.0) * 1e-3;
  args.require(a.gap_threshold_s > 0.0, "gap-ms", "> 0");
  const auto c = trace::analyze(t, a);
  std::printf("packets %zu, duration %.1f s, clients %zu\n", t.size(),
              t.duration_s(), t.flow_count(trace::Direction::kClientToServer));
  std::printf("client->server: size %.1f B (CoV %.3f), IAT %.1f ms "
              "(CoV %.3f)\n",
              c.client_packet_size_bytes.mean(),
              c.client_packet_size_bytes.cov(), c.client_iat_ms.mean(),
              c.client_iat_ms.cov());
  std::printf("server->client: size %.1f B (CoV %.3f), burst IAT %.1f ms "
              "(CoV %.3f)\n",
              c.server_packet_size_bytes.mean(),
              c.server_packet_size_bytes.cov(), c.burst_iat_ms.mean(),
              c.burst_iat_ms.cov());
  std::printf("bursts: %zu, size %.0f B (CoV %.3f), %.1f packets/burst\n",
              c.bursts.size(), c.burst_size_bytes.mean(),
              c.burst_size_bytes.cov(), c.burst_packet_count.mean());
  if (c.bursts.size() >= 100) {
    const auto tdf = trace::burst_size_tdf(
        c.bursts, 2.5 * c.burst_size_bytes.mean(), 100);
    const auto tail = dist::erlang_fit_tail(c.burst_size_bytes.mean(),
                                            tdf, 2, 64, 1e-4);
    const auto mom = dist::erlang_fit_moments(c.burst_size_bytes.mean(),
                                              c.burst_size_bytes.cov());
    std::printf("Erlang order: K = %d (tail fit), K = %d (CoV fit)\n",
                tail.k, mom.k());
  }
  return 0;
}

int cmd_report(const Args& args) {
  const auto req = request_from(args, serve::Op::kRtt);
  core::ReportOptions opt;
  opt.n_clients = req.gamers;
  opt.epsilon = req.epsilon;
  const long long telemetry = args.integer("telemetry", 0);
  args.require(telemetry == 0 || telemetry == 1, "telemetry", "0 or 1");
  opt.include_telemetry = telemetry == 1;
  std::fputs(core::scenario_report_markdown(req.scenario, opt).c_str(),
             stdout);
  return 0;
}

int cmd_profile(const Args& args) {
  const auto req = request_from(args, serve::Op::kRtt);
  print_scenario(req.scenario);
  // Analytic stack: the rtt evaluation's quantile + breakdown exercise
  // the full solver chain (fixed-point pole searches, M/D/1 dominant
  // pole, convolutions).
  (void)execute(req);
  // Simulation stack: a short packet-level run for event-loop stats.
  core::ValidationOptions vopt;
  vopt.duration_s = args.number("duration", 10.0);
  args.require(vopt.duration_s > 0.0, "duration", "> 0 [s]");
  vopt.warmup_s = std::min(2.0, 0.25 * vopt.duration_s);
  const long long seed = args.integer("seed", 1);
  args.require(seed >= 0, "seed", ">= 0");
  vopt.seed = static_cast<std::uint64_t>(seed);
  (void)core::validate_point(req.scenario, static_cast<int>(req.gamers),
                             vopt);
  obs::ensure_baseline_schema();
  std::fputs(
      obs::render_summary(obs::MetricsRegistry::global().snapshot())
          .c_str(),
      stdout);
  return 0;
}

trace::Trace load_trace(const Args& args) {
  const std::string in = args.text("in");
  args.require(!in.empty(), "in", "given (a trace FILE to replay)");
  if (args.has("pcap")) {
    trace::PcapReadOptions popt;
    popt.server.ipv4 =
        trace::ServerEndpoint::parse_ipv4(args.text("server-ip"));
    popt.server.port = server_port_from(args);
    return trace::read_pcap_file(in, popt);
  }
  return trace::read_csv_file(in);
}

int cmd_replay(const Args& args) {
  const auto t = load_trace(args);
  sim::TraceReplayConfig cfg;
  cfg.bottleneck_bps = args.number("c", 5.0) * 1e6;
  cfg.uplink_bps = args.number("rup", 128.0) * 1e3;
  cfg.downlink_bps = args.number("rdown", 1024.0) * 1e3;
  cfg.warmup_s = args.number("warmup", 2.0);
  args.require(cfg.bottleneck_bps > 0.0, "c", "> 0");
  args.require(cfg.uplink_bps > 0.0, "rup", "> 0");
  args.require(cfg.downlink_bps > 0.0, "rdown", "> 0");
  args.require(cfg.warmup_s >= 0.0, "warmup", ">= 0");
  if (args.has("buffer")) {
    const long long buffer = args.integer("buffer", 0);
    args.require(buffer >= 0, "buffer", "an integer >= 0 [packets]");
    cfg.bottleneck_buffer_packets = static_cast<std::size_t>(buffer);
  }
  const auto r = sim::replay_trace(t, cfg);
  std::printf("replayed %zu packets (C = %.1f Mb/s, Rup = %.0f kb/s, "
              "Rdown = %.0f kb/s)\n",
              t.size(), cfg.bottleneck_bps / 1e6, cfg.uplink_bps / 1e3,
              cfg.downlink_bps / 1e3);
  auto report = [](const char* name, const sim::DelayTap& tap) {
    std::printf("%-26s mean %7.3f  p99 %7.3f  p99.9 %7.3f ms\n", name,
                tap.moments().mean() * 1e3,
                tap.exact_quantile(0.99) * 1e3,
                tap.exact_quantile(0.999) * 1e3);
  };
  report("upstream wait", r.upstream_wait);
  report("upstream total", r.upstream_total);
  report("downstream sojourn", r.downstream_sojourn);
  report("downstream total", r.downstream_total);
  if (cfg.bottleneck_buffer_packets > 0) {
    std::printf("drops: upstream %llu, downstream %llu\n",
                static_cast<unsigned long long>(r.upstream_drops),
                static_cast<unsigned long long>(r.downstream_drops));
  }
  return 0;
}

int cmd_validate(const Args& args) {
  const auto s = request_from(args, serve::Op::kRtt).scenario;
  const long long reps_ll = args.integer("reps", 1);
  args.require(reps_ll >= 1, "reps", "an integer >= 1");
  const auto reps = static_cast<std::size_t>(reps_ll);
  core::ValidationOptions opt;
  opt.quantile_prob = args.number("prob", 0.999);
  args.require(opt.quantile_prob > 0.0 && opt.quantile_prob < 1.0, "prob",
               "in (0, 1)");
  opt.duration_s = args.number("duration", 120.0);
  args.require(opt.duration_s > opt.warmup_s, "duration",
               past_warmup(opt.warmup_s));
  const long long seed = args.integer("seed", 1);
  args.require(seed >= 0, "seed", ">= 0");
  opt.seed = static_cast<std::uint64_t>(seed);
  const double rho = args.number("load", 0.5);
  args.require(rho > 0.0 && rho < 1.0, "load", "in (0, 1)");
  const int n = std::max(
      1, static_cast<int>(s.clients_for_downlink_load(rho)));
  print_scenario(s);
  if (reps > 1) {
    // Independent replications in parallel (counter-based seeds), with
    // across-replication spread for the simulated quantiles.
    const double prob = opt.quantile_prob;
    const auto results =
        sim::run_replications(core::sim_config(s, n, opt), reps);
    std::printf("load %.2f (N = %d), %zu x %.1f s simulated, "
                "quantile %.4f\n",
                rho, n, reps, opt.duration_s, prob);
    auto report = [&](const char* name, auto tap_of) {
      const auto stats = sim::replication_stats(
          results, [&](const sim::GamingScenarioResult& r) {
            return tap_of(r).exact_quantile(prob) * 1e3;
          });
      std::printf("%-28s %10.3f +- %.3f ms  (min %.3f, max %.3f)\n",
                  name, stats.mean, stats.ci95_half_width, stats.min,
                  stats.max);
    };
    report("upstream wait [ms]", [](const sim::GamingScenarioResult& r)
                                     -> const sim::DelayTap& {
      return r.upstream_wait;
    });
    report("downstream delay [ms]",
           [](const sim::GamingScenarioResult& r) -> const sim::DelayTap& {
             return r.downstream_total;
           });
    report("model-RTT [ms]", [](const sim::GamingScenarioResult& r)
                                 -> const sim::DelayTap& {
      return r.model_rtt;
    });
    return 0;
  }
  const auto p = core::validate_point(s, n, opt);
  std::printf("load %.2f (N = %d), %.1f s simulated, quantile %.4f\n",
              p.rho_down, p.n_clients, opt.duration_s, opt.quantile_prob);
  std::printf("%-28s %10s %10s\n", "", "model", "simulated");
  std::printf("%-28s %10.3f %10.3f\n", "upstream wait [ms]", p.model_up_ms,
              p.sim_up_ms);
  std::printf("%-28s %10.2f %10.2f\n", "downstream delay [ms]",
              p.model_down_ms, p.sim_down_ms);
  std::printf("%-28s %10.2f %10.2f\n", "model-RTT [ms]", p.model_rtt_ms,
              p.sim_rtt_ms);
  return 0;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << body;
  return static_cast<bool>(out.flush());
}

/// `fpsq benchdiff BASELINE.json CURRENT.json [--timing-tol R]
/// [--acc-tol R] [--md-out FILE] [--json-out FILE]`.
/// Exit codes: 0 clean, 3 timing warnings only, 4 accuracy regression
/// (1 = I/O or parse error, 2 = usage error).
int cmd_benchdiff(const std::string& baseline_path,
                  const std::string& current_path, const Args& args) {
  obs::BenchDiffOptions opt;
  opt.timing_rel_tol = args.number("timing-tol", opt.timing_rel_tol);
  args.require(opt.timing_rel_tol > 0.0, "timing-tol", "> 0");
  opt.timing_abs_tol = args.number("timing-abs-tol", opt.timing_abs_tol);
  args.require(opt.timing_abs_tol >= 0.0, "timing-abs-tol", ">= 0");
  opt.accuracy_rel_tol = args.number("acc-tol", opt.accuracy_rel_tol);
  args.require(opt.accuracy_rel_tol > 0.0, "acc-tol", "> 0");

  auto load = [](const std::string& path) {
    try {
      return obs::json::parse(read_text_file(path));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  };
  const auto baseline = load(baseline_path);
  const auto current = load(current_path);
  const auto report = obs::diff_bench_collections(baseline, current, opt);

  const std::string markdown = report.to_markdown();
  std::fputs(markdown.c_str(), stdout);
  if (args.has("md-out") &&
      !write_text_file(args.text("md-out"), markdown)) {
    std::fprintf(stderr, "fpsq benchdiff: cannot write '%s'\n",
                 args.text("md-out").c_str());
    return 1;
  }
  if (args.has("json-out") &&
      !write_text_file(args.text("json-out"), report.to_json() + "\n")) {
    std::fprintf(stderr, "fpsq benchdiff: cannot write '%s'\n",
                 args.text("json-out").c_str());
    return 1;
  }
  return report.exit_code();
}

/// `fpsq check`: the differential self-check harness (src/check/,
/// docs/CHECKING.md). Exit 0 on a clean run, 1 when any cross-path
/// comparison disagrees beyond its tolerance.
int cmd_check(const Args& args) {
  check::CheckOptions opt;
  const long long points = args.integer("points", 200);
  // 0 is allowed so a sim-corpus mismatch can be reproduced alone
  // (--points 0 --sim-points N, the hint printed in its record).
  args.require(points >= 0 && points <= 1000000, "points",
               "an integer in [0, 1000000]");
  opt.points = static_cast<std::size_t>(points);
  const long long seed = args.integer("seed", 1);
  args.require(seed >= 0, "seed", ">= 0");
  opt.seed = static_cast<std::uint64_t>(seed);
  const long long serve_points = args.integer("serve-points", 8);
  args.require(serve_points >= 0, "serve-points", ">= 0");
  opt.serve_points = static_cast<std::size_t>(serve_points);
  const long long sim_points = args.integer("sim-points", 2);
  args.require(sim_points >= 0, "sim-points", ">= 0");
  opt.sim_points = static_cast<std::size_t>(sim_points);
  const long long sim_reps = args.integer("sim-reps", 3);
  args.require(sim_reps >= 1 && sim_reps <= 64, "sim-reps",
               "an integer in [1, 64]");
  opt.sim_replications = static_cast<int>(sim_reps);
  opt.sim_duration_s = args.number("sim-duration", 20.0);
  args.require(opt.sim_duration_s > check::kSimWarmupS, "sim-duration",
               past_warmup(check::kSimWarmupS));
  opt.perturb = args.number("perturb", 0.0);
  args.require(std::isfinite(opt.perturb), "perturb", "finite");

  const check::CheckReport report = check::run_check(opt);
  std::fputs(report.to_text().c_str(), stdout);
  return report.ok() ? 0 : 1;
}

/// Per-command usage text, shared by `fpsq help <cmd>` and the parse
/// error path (which prints it to stderr under the error message). An
/// unknown topic gets the general synopsis.
const char* usage_text(const std::string& topic) {
  if (topic == "rtt") {
    return "fpsq rtt --gamers N [--eps 1e-5] [scenario flags]\n"
           "  ping-time quantile and per-component breakdown\n";
  }
  if (topic == "dimension") {
    return "fpsq dimension --bound MS [--eps 1e-5] [scenario flags]\n"
           "  largest load / gamer count meeting the RTT bound\n"
           "  grid mode (Table-4 style): --ks 2,9,20 --bounds 50,100\n"
           "  runs one request per cell as one serve-engine batch, in\n"
           "  parallel on --threads workers (a failed cell prints\n"
           "  failed:<code> in the status column, the rest of the table\n"
           "  is unaffected)\n";
  }
  if (topic == "sweep") {
    return "fpsq sweep [--step 0.05] [--eps 1e-5] [scenario flags]\n"
           "  CSV of RTT quantiles vs load (Figure-3 style), evaluated in\n"
           "  parallel on --threads workers; the status column reports\n"
           "  exact | failed per point (a failed point's delays read 0)\n";
  }
  if (topic == "report") {
    return "fpsq report --gamers N [--eps 1e-5] [--telemetry 0|1]\n"
           "            [scenario flags]\n"
           "  Markdown scenario report\n";
  }
  if (topic == "generate") {
    return "fpsq generate --game cs|halflife|quake3|halo|ut\n"
           "              [--players 12] [--duration 360] [--seed 1]\n"
           "              [--out trace.csv]\n";
  }
  if (topic == "analyze") {
    return "fpsq analyze --in FILE [--gap-ms 8]\n"
           "             [--pcap 1 --server-ip A.B.C.D --server-port P]\n"
           "  Section-2.2 statistics and Erlang-order fits\n";
  }
  if (topic == "replay") {
    return "fpsq replay --in FILE [--pcap 1 --server-ip A.B.C.D"
           " --server-port P]\n"
           "            [--c 5] [--rup 128] [--rdown 1024] [--warmup 2]\n"
           "            [--buffer N]\n"
           "  trace-driven simulation: the delays this recorded session"
           " would\n  see on the given access network\n";
  }
  if (topic == "validate") {
    return "fpsq validate [--load 0.5] [--duration 120] [--prob 0.999]\n"
           "              [--seed 1] [--reps 1] [scenario flags]\n"
           "  analytic model vs packet-level simulation; --reps R > 1 runs\n"
           "  R independent replications in parallel and reports the\n"
           "  across-replication spread. --duration must exceed the\n"
           "  fixed 5 s warm-up\n";
  }
  if (topic == "profile") {
    return "fpsq profile [--gamers 60] [--duration 10] [--seed 1]\n"
           "             [scenario flags]\n"
           "  runs the analytic solvers and a short simulation, then prints\n"
           "  the solver/simulator telemetry summary\n";
  }
  if (topic == "serve") {
    return "fpsq serve [--stdin 1 | --listen PORT] [--queue 1024]\n"
           "           [--batch 64] [--deadline-ms 0] [--precision 17]\n"
           "  long-running NDJSON request engine: one JSON request per\n"
           "  line (ops rtt | dimension | sweep), one JSON response per\n"
           "  line, in admission order — see docs/SERVING.md for the\n"
           "  schema. One poll loop reads every input; what arrived while\n"
           "  a batch ran forms the next batch (up to --batch requests),\n"
           "  whose requests are evaluated in parallel, each once; every\n"
           "  answer is bit-identical to a one-shot run, whatever the\n"
           "  cache holds.\n"
           "  --queue bounds admission (overflow is answered with a\n"
           "  structured `shed` error), --deadline-ms expires stale\n"
           "  requests, SIGTERM/SIGINT drain gracefully (every admitted\n"
           "  request is answered, lines not yet read are answered\n"
           "  `shed`, then exit 0).\n"
           "  --listen accepts loopback TCP connections instead of stdin.\n"
           "  --tick-ms is accepted and has no effect (there is no gather\n"
           "  window).\n";
  }
  if (topic == "check") {
    return "fpsq check [--points 200] [--seed 1] [--serve-points 8]\n"
           "           [--sim-points 2] [--sim-reps 3] [--sim-duration 20]\n"
           "           [--perturb 0]\n"
           "  differential self-check: samples a seeded corpus of\n"
           "  admissible parameter points and cross-evaluates every\n"
           "  independent tail path (compiled kernels, direct pole sums,\n"
           "  the adaptive-quadrature oracle, inversion round trips,\n"
           "  packet-level simulation, the batched serve engine); prints\n"
           "  one reproducible record per disagreement. Deterministic:\n"
           "  the report is bit-identical at any --threads count.\n"
           "  --perturb X biases the kernel side by X (self-test: a\n"
           "  nonzero perturbation must fail). --sim-duration must\n"
           "  exceed the fixed 2 s warm-up. Exit 0 clean, 1 mismatch.\n"
           "  See docs/CHECKING.md for the tolerance ladder.\n";
  }
  if (topic == "benchdiff") {
    return "fpsq benchdiff BASELINE.json CURRENT.json\n"
           "               [--timing-tol 0.5] [--timing-abs-tol 0.01]\n"
           "               [--acc-tol 1e-6]\n"
           "               [--md-out FILE] [--json-out FILE]\n"
           "  compares two collect_bench.sh outputs (fpsq.bench.v1/v2)\n"
           "  with per-class tolerances: timing metrics (wall_s, *_s,\n"
           "  events_per_sec, speedup) only warn beyond --timing-tol\n"
           "  relative + --timing-abs-tol absolute slack, accuracy\n"
           "  metrics (any key containing diff or err, and the rest)\n"
           "  fail beyond --acc-tol relative drift\n"
           "  exit codes: 0 pass, 3 warnings only (timing noise /\n"
           "  baseline refresh hints), 4 accuracy regression\n";
  }
  return "fpsq <command> [--flag value ...]\n\n"
         "commands: rtt report dimension sweep serve check generate"
         " analyze replay validate profile benchdiff help\n\n"
         "scenario flags (defaults = paper Section 4):\n"
         "  --k 9          burst-size Erlang order, an integer in\n"
         "                 [2, 512]\n"
         "  --tick 40      tick interval T [ms]\n"
         "  --ps 125       mean server packet size P_S [bytes]\n"
         "  --pc 80        client packet size P_C [bytes]\n"
         "  --c 5          gaming bottleneck capacity C [Mb/s]\n"
         "  --rup 128      access uplink [kb/s]\n"
         "  --rdown 1024   access downlink [kb/s]\n"
         "  --prop 0       one-way propagation [ms]\n"
         "  --proc 0       server processing [ms]\n"
         "  --jitter 0     server tick CoV (0 = paper's Det ticks;\n"
         "                 > 0 uses the exact GI/E_K/1 model)\n\n"
         "execution flags (every command):\n"
         "  --threads N          worker threads for sweeps/grids/reps,\n"
         "                       at most 1024; 0 = hardware concurrency\n"
         "                       (same rule as FPSQ_THREADS=0; default:\n"
         "                       FPSQ_THREADS env, else cores)\n\n"
         "observability flags (every command):\n"
         "  --metrics-out FILE   write solver/simulator metrics JSON\n"
         "  --trace-out FILE     record spans, write Chrome trace JSON\n"
         "  --timeline-out FILE  sample the metrics registry on a\n"
         "                       background thread, write a\n"
         "                       fpsq.timeline.v1 series\n"
         "  --timeline-interval-ms N  sampling period (default 100)\n\n"
         "`fpsq help <command>` shows command-specific flags.\n";
}

int cmd_help(const std::string& topic) {
  std::fputs(usage_text(topic), stdout);
  return 0;
}

/// The command-specific flags each subcommand accepts (the common
/// execution/observability flags are implied); used by Args::allow_only
/// so a typoed flag fails loudly instead of silently using the default.
std::vector<std::string> flags_for(const std::string& cmd) {
  auto with_scenario = [](std::initializer_list<const char*> extra) {
    std::vector<std::string> out(std::begin(serve::kScenarioKeys),
                                 std::end(serve::kScenarioKeys));
    out.insert(out.end(), extra.begin(), extra.end());
    return out;
  };
  if (cmd == "rtt") return with_scenario({"gamers", "eps"});
  if (cmd == "report") return with_scenario({"gamers", "eps", "telemetry"});
  if (cmd == "dimension") {
    return with_scenario({"eps", "bound", "ks", "bounds"});
  }
  if (cmd == "sweep") return with_scenario({"eps", "step"});
  if (cmd == "serve") {
    return {"stdin",       "listen",    "queue", "batch",
            "tick-ms",     "deadline-ms", "precision"};
  }
  if (cmd == "check") {
    return {"points",   "seed",         "serve-points", "sim-points",
            "sim-reps", "sim-duration", "perturb"};
  }
  if (cmd == "generate") {
    return {"game", "players", "duration", "seed", "out"};
  }
  if (cmd == "analyze") {
    return {"in", "gap-ms", "pcap", "server-ip", "server-port"};
  }
  if (cmd == "replay") {
    return {"in",  "pcap",  "server-ip", "server-port", "c",
            "rup", "rdown", "warmup",    "buffer"};
  }
  if (cmd == "validate") {
    return with_scenario({"load", "duration", "prob", "seed", "reps"});
  }
  if (cmd == "profile") {
    return with_scenario({"gamers", "duration", "seed", "eps"});
  }
  return {};
}

bool is_command(const std::string& cmd) {
  return cmd == "rtt" || cmd == "report" || cmd == "dimension" ||
         cmd == "sweep" || cmd == "serve" || cmd == "check" ||
         cmd == "generate" || cmd == "analyze" || cmd == "replay" ||
         cmd == "validate" || cmd == "profile";
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "rtt") return cmd_rtt(args);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "dimension") return cmd_dimension(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "check") return cmd_check(args);
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "validate") return cmd_validate(args);
  if (cmd == "profile") return cmd_profile(args);
  std::fprintf(stderr, "unknown command '%s' (try: fpsq help)\n",
               cmd.c_str());
  return 2;
}

/// Exports --timeline-out / --metrics-out / --trace-out if requested.
/// Runs even when the command failed, so a partial run's telemetry is
/// still inspectable. The timeline is finalized FIRST: stop_and_write()
/// appends one last sample, and no metrics are recorded between it and
/// the --metrics-out snapshot, so the final timeline sample matches the
/// metrics file exactly.
int export_observability(const Args& args) {
  int rc = 0;
  if (args.has("timeline-out")) {
    if (!obs::TimelineSampler::global().stop_and_write()) {
      std::fprintf(stderr, "fpsq: cannot write timeline to '%s'\n",
                   args.text("timeline-out").c_str());
      rc = 1;
    }
  }
  if (args.has("metrics-out")) {
    obs::ensure_baseline_schema();
    if (!obs::write_metrics_json(
            args.text("metrics-out"),
            obs::MetricsRegistry::global().snapshot())) {
      std::fprintf(stderr, "fpsq: cannot write metrics to '%s'\n",
                   args.text("metrics-out").c_str());
      rc = 1;
    }
  }
  if (args.has("trace-out")) {
    if (!obs::write_trace_json(args.text("trace-out"))) {
      std::fprintf(stderr, "fpsq: cannot write trace to '%s'\n",
                   args.text("trace-out").c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return cmd_help("");
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return cmd_help(argc > 2 ? argv[2] : "");
  }
  if (cmd == "benchdiff") {
    // Unlike the model commands, benchdiff takes two positional paths.
    if (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-') {
      std::fprintf(stderr, "fpsq benchdiff: expected two input files\n\n%s",
                   usage_text("benchdiff"));
      return 2;
    }
    try {
      const Args args{cmd, argc, argv, 4};
      args.allow_only(
          {"timing-tol", "timing-abs-tol", "acc-tol", "md-out", "json-out"});
      return cmd_benchdiff(argv[2], argv[3], args);
    } catch (const UsageError& e) {
      std::fprintf(stderr, "fpsq benchdiff: %s\n\nusage:\n%s", e.what(),
                   usage_text("benchdiff"));
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fpsq benchdiff: %s\n", e.what());
      return 1;
    }
  }
  if (!is_command(cmd)) {
    std::fprintf(stderr, "fpsq: unknown command '%s'\n\n%s", cmd.c_str(),
                 usage_text(""));
    return 2;
  }
  try {
    // `serve --stdin` is a mode switch rather than a parameter: accept
    // it bare by inserting its implied value before the pair parser.
    std::vector<char*> argv_fixed(argv, argv + argc);
    static char kImpliedTrue[] = "1";
    if (cmd == "serve") {
      for (std::size_t i = 2; i < argv_fixed.size(); ++i) {
        if (std::string(argv_fixed[i]) == "--stdin" &&
            (i + 1 == argv_fixed.size() ||
             std::string(argv_fixed[i + 1]).rfind("--", 0) == 0)) {
          argv_fixed.insert(argv_fixed.begin() +
                                static_cast<std::ptrdiff_t>(i) + 1,
                            kImpliedTrue);
          ++i;
        }
      }
    }
    const Args args{cmd, static_cast<int>(argv_fixed.size()),
                    argv_fixed.data(), 2};
    args.allow_only(flags_for(cmd));
    apply_execution_flags(args);
    if (args.has("trace-out")) {
      obs::TraceRecorder::global().set_enabled(true);
    }
    if (args.has("timeline-out")) {
      const double interval = args.number("timeline-interval-ms", 100.0);
      args.require(interval > 0.0, "timeline-interval-ms", "> 0");
      // Pre-register the well-known metric names so even the first
      // sample (and an idle run's only sample) carries the full schema.
      obs::ensure_baseline_schema();
      obs::TimelineSampler::Options opt;
      opt.path = args.text("timeline-out");
      opt.interval_ms = interval;
      obs::TimelineSampler::global().start(opt);
    }
    int rc;
    try {
      rc = dispatch(cmd, args);
    } catch (...) {
      (void)export_observability(args);
      throw;
    }
    const int obs_rc = export_observability(args);
    return rc != 0 ? rc : obs_rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "fpsq %s: %s\n\nusage:\n%s", cmd.c_str(),
                 e.what(), usage_text(e.command()));
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpsq %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
