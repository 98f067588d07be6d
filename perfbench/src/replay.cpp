#include "replay.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/dimensioning.h"
#include "core/rtt_model.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "stats.h"

namespace perfbench {

namespace {

/// In-memory span recorder; a disabled tracer records nothing and costs
/// one branch per scope.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* path;  ///< "closed" / "fallback" / "" (kernel path taken)
    double start;
    double end;
    int parent;
    long req;  ///< request index, -1 for batch-level spans
  };

  explicit Tracer(bool on) : on_(on) {}

  int open(const char* name, int parent, long req) {
    if (!on_) return -1;
    spans_.push_back({name, "", now_s(), 0.0, parent, req});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }
  void set_path(int id, const char* path) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].path = path;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// RAII scope over Tracer::open/close.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent, long req)
      : t_(t), id_(t.open(name, parent, req)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

std::uint64_t kernels_compiled() {
  std::uint64_t n = 0;
  for (const auto& c : fpsq::obs::MetricsRegistry::global().snapshot().counters) {
    if (c.name == "queueing.kernel.closed_form_hits" ||
        c.name == "queueing.kernel.quad_fallbacks") {
      n += c.value;
    }
  }
  return n;
}

using Batch = std::vector<std::size_t>;

std::vector<Batch> cut_batches(std::size_t n, std::size_t size) {
  std::vector<Batch> out;
  for (std::size_t i = 0; i < n; i += size) {
    Batch b;
    for (std::size_t j = i; j < std::min(n, i + size); ++j) b.push_back(j);
    out.push_back(std::move(b));
  }
  return out;
}

/// Per-request and per-call samples the metrics are computed from.
struct Samples {
  std::vector<double> parse_us;
  std::vector<double> create_us[2], breakdown_us[2], quantile_us[2];
  std::vector<double> dimension_ms, sweep_ms, dimension_kernels;
  double kernels_per_model = 0.0;
};

/// Serve pass from a cleared cache: parse every line, execute every
/// batch. Appends each batch's serve.execute span id to `execute_spans`
/// when given. Returns the pass's wall time [s].
double serve_pass(const std::vector<std::string>& lines,
                  const std::vector<Batch>& batches, Tracer& tr, Samples* s,
                  std::vector<int>* execute_spans) {
  fpsq::queueing::SolverCache::global().clear();
  const fpsq::serve::Engine engine;
  const double t0 = now_s();
  for (const Batch& b : batches) {
    Scope batch(tr, "serve.batch", -1, -1);
    std::vector<fpsq::serve::ParsedRequest> parsed;
    parsed.reserve(b.size());
    for (const std::size_t i : b) {
      const double a = now_s();
      Scope sp(tr, "serve.parse", batch.id(), static_cast<long>(i));
      parsed.push_back(fpsq::serve::parse_request(lines[i]));
      if (s != nullptr) s->parse_us.push_back(1e6 * (now_s() - a));
    }
    Scope sp(tr, "serve.execute", batch.id(), -1);
    if (execute_spans != nullptr) execute_spans->push_back(sp.id());
    const auto responses = engine.execute(parsed);
    (void)responses;
  }
  return now_s() - t0;
}

/// One request's core calls under a "request" span whose parent is
/// `parent`; returns the time of the calls the engine makes [ms]. Sweeps
/// run through Engine::execute_one, so the load grid is the engine's own
/// (its formatting of the points is the only serve work in that span).
double core_calls(const fpsq::serve::Request& req, long index, int parent,
                  Tracer& tr, Samples* s) {
  const int root = tr.open("request", parent, index);
  const double t0 = now_s();
  switch (req.op) {
    case fpsq::serve::Op::kRtt: {
      const bool count_kernels = s != nullptr && s->kernels_per_model == 0.0;
      const std::uint64_t k0 = count_kernels ? kernels_compiled() : 0;
      const double a = now_s();
      const int cs = tr.open("core.create", root, index);
      auto created = fpsq::core::RttModel::create(req.scenario, req.gamers);
      tr.close(cs);
      const double create_us = 1e6 * (now_s() - a);
      if (!created.ok()) {
        tr.close(root);
        return 1e3 * (now_s() - t0);
      }
      const auto model = std::move(created).take_or_throw();
      const int path = model.total_kernel()->closed_form() ? 0 : 1;
      const char* path_name = path == 0 ? "closed" : "fallback";
      tr.set_path(cs, path_name);
      if (count_kernels) {
        s->kernels_per_model = static_cast<double>(kernels_compiled() - k0);
      }
      const double b = now_s();
      {
        Scope bs(tr, "core.breakdown", root, index);
        tr.set_path(bs.id(), path_name);
        try {
          (void)model.breakdown_ms(req.epsilon);
        } catch (const fpsq::err::SolverFailure&) {
        }
      }
      const double breakdown_us = 1e6 * (now_s() - b);
      const double engine_ms = 1e3 * (now_s() - t0);
      tr.close(root);
      // The quantile probe is not part of the engine's work: sampling
      // passes only, and outside the request span so that it stays out
      // of the serve layer's self time.
      if (s == nullptr) return engine_ms;
      const double c = now_s();
      {
        Scope qs(tr, "queueing.quantile", -1, index);
        tr.set_path(qs.id(), path_name);
        try {
          (void)model.total_kernel()->quantile(req.epsilon);
        } catch (const fpsq::err::SolverFailure&) {
        }
      }
      s->create_us[path].push_back(create_us);
      s->breakdown_us[path].push_back(breakdown_us);
      s->quantile_us[path].push_back(1e6 * (now_s() - c));
      return engine_ms;
    }
    case fpsq::serve::Op::kDimension: {
      const std::uint64_t k0 = s != nullptr ? kernels_compiled() : 0;
      const double a = now_s();
      {
        Scope ds(tr, "core.dimension", root, index);
        (void)fpsq::core::dimension_for_rtt_checked(req.scenario,
                                                    req.bound_ms, req.epsilon);
      }
      const double ms = 1e3 * (now_s() - a);
      if (s != nullptr) {
        s->dimension_ms.push_back(ms);
        s->dimension_kernels.push_back(
            static_cast<double>(kernels_compiled() - k0));
      }
      break;
    }
    case fpsq::serve::Op::kSweep: {
      const double a = now_s();
      {
        Scope ss(tr, "core.sweep", root, index);
        (void)fpsq::serve::Engine().execute_one(req);
      }
      if (s != nullptr) s->sweep_ms.push_back(1e3 * (now_s() - a));
      break;
    }
  }
  tr.close(root);
  return 1e3 * (now_s() - t0);
}

/// Core pass from a cleared cache: the engine's evaluations of every
/// batch — one per distinct work key, in the engine's key order. Each
/// batch's request spans are children of `execute_spans[batch]` (the serve
/// pass's span for the same batch) when given, so the span table's self
/// time of serve.execute is the engine's own work. Returns the time of the
/// calls the engine makes [s].
double core_pass(const std::vector<fpsq::serve::ParsedRequest>& parsed,
                 const std::vector<Batch>& batches, Tracer& tr, Samples* s,
                 const std::vector<int>& execute_spans) {
  fpsq::queueing::SolverCache::global().clear();
  double engine_s = 0.0;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const int parent = bi < execute_spans.size() ? execute_spans[bi] : -1;
    std::map<std::string, std::size_t> unique;
    for (const std::size_t i : batches[bi]) {
      if (parsed[i].ok) unique.emplace(parsed[i].request.work_key(), i);
    }
    for (const auto& [key, i] : unique) {
      (void)key;
      engine_s += 1e-3 * core_calls(parsed[i].request, static_cast<long>(i),
                                    parent, tr, s);
    }
  }
  return engine_s;
}

/// Dimension and sweep probes for a stream that has no such requests
/// (rtt_open): derived from its first rtt points — a dimension at a bound
/// just above the point's own RTT quantile, and a 0.1-step sweep.
void derived_probes(const std::vector<fpsq::serve::ParsedRequest>& parsed,
                    Tracer& tr, Samples& s) {
  const bool need_dim = s.dimension_ms.empty();
  const bool need_sweep = s.sweep_ms.empty();
  if (!need_dim && !need_sweep) return;
  std::size_t made = 0;
  for (std::size_t i = 0; i < parsed.size() && made < 4; ++i) {
    if (!parsed[i].ok || parsed[i].request.op != fpsq::serve::Op::kRtt) {
      continue;
    }
    fpsq::serve::Request req = parsed[i].request;
    auto created = fpsq::core::RttModel::create(req.scenario, req.gamers);
    if (!created.ok()) continue;
    double q = 0.0;
    try {
      q = std::move(created).take_or_throw().breakdown_ms(req.epsilon).total_ms;
    } catch (const fpsq::err::SolverFailure&) {
      continue;
    }
    ++made;
    fpsq::queueing::SolverCache::global().clear();
    if (need_dim) {
      req.op = fpsq::serve::Op::kDimension;
      req.bound_ms = std::ceil(q) + 1.0;
      (void)core_calls(req, static_cast<long>(i), -1, tr, &s);
    }
    if (need_sweep) {
      req.op = fpsq::serve::Op::kSweep;
      req.step = 0.1;
      (void)core_calls(req, static_cast<long>(i), -1, tr, &s);
    }
  }
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Self time [s] of every span: its duration minus its children's.
std::vector<double> self_times(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const auto& sp : spans) {
    if (sp.parent >= 0) {
      self[static_cast<std::size_t>(sp.parent)] -= sp.end - sp.start;
    }
  }
  return self;
}

/// Per-layer table (count, total, self time, p50) over the traced spans.
std::string layer_table(const std::vector<Tracer::Span>& spans) {
  const std::vector<double> self = self_times(spans);
  struct Row {
    std::vector<double> dur_us;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& sp = spans[i];
    std::string name = sp.name;
    if (sp.path[0] != '\0') name += std::string(".") + sp.path;
    Row& r = rows[name];
    const double d = sp.end - sp.start;
    r.dur_us.push_back(1e6 * d);
    r.total_ms += 1e3 * d;
    r.self_ms += 1e3 * self[i];
  }
  std::string out =
      "layer                         count   total_ms    self_ms     p50_us\n";
  char line[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-28s %6zu %10.3f %10.3f %10.2f\n",
                  name.c_str(), r.dur_us.size(), r.total_ms, r.self_ms,
                  median(r.dur_us));
    out += line;
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<Tracer::Span>& spans) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& sp = spans[i];
    JsonObject o;
    o.num("id", static_cast<double>(i))
        .raw("name", "\"" + std::string(sp.name) + "\"")
        .raw("path", "\"" + std::string(sp.path) + "\"")
        .num("start_us", 1e6 * (sp.start - origin))
        .num("end_us", 1e6 * (sp.end - origin))
        .num("parent", sp.parent)
        .num("req", static_cast<double>(sp.req));
    f << o.str() << '\n';
  }
}

}  // namespace

std::string run_replay(const std::vector<std::string>& requests,
                       const ReplayOptions& opt) {
  fpsq::par::set_global_thread_count(1);
  const auto batches = cut_batches(requests.size(), opt.batch);
  std::vector<fpsq::serve::ParsedRequest> parsed;
  parsed.reserve(requests.size());
  for (const auto& line : requests) {
    parsed.push_back(fpsq::serve::parse_request(line));
  }

  // Warm-up, untraced: one-time costs (page faults, static tables) stay
  // out of the traced passes, and its time is the untraced reference of
  // trace.overhead_ratio.
  Tracer off(false);
  const double untraced_s =
      serve_pass(requests, batches, off, nullptr, nullptr) +
      core_pass(parsed, batches, off, nullptr, {});

  // Samples and spans: one traced pass per layer over the whole stream,
  // so the cache warms across batches as in the server.
  Tracer on(true);
  Samples s;
  std::vector<int> execute_spans;
  const double traced_s =
      serve_pass(requests, batches, on, &s, &execute_spans) +
      core_pass(parsed, batches, on, &s, execute_spans);
  derived_probes(parsed, on, s);

  const auto table = layer_table(on.spans());
  std::fputs(table.c_str(), stderr);
  if (!opt.table_out.empty()) {
    std::ofstream f(opt.table_out);
    f << table;
  }
  if (!opt.spans_out.empty()) write_spans(opt.spans_out, on.spans());

  const std::vector<double> self = self_times(on.spans());
  double execute_s = 0.0, execute_self_s = 0.0;
  for (const int id : execute_spans) {
    const auto& sp = on.spans()[static_cast<std::size_t>(id)];
    execute_s += sp.end - sp.start;
    execute_self_s += self[static_cast<std::size_t>(id)];
  }
  const double nb = static_cast<double>(batches.size());
  JsonObject out;
  out.num("serve.parse_us", median(s.parse_us))
      .num("serve.execute_ms", 1e3 * execute_s / nb)
      .num("serve.execute_self_ms", 1e3 * execute_self_s / nb)
      .num("core.create_us.closed", median(s.create_us[0]))
      .num("core.create_us.fallback", median(s.create_us[1]))
      .num("core.breakdown_us.closed", median(s.breakdown_us[0]))
      .num("core.breakdown_us.fallback", median(s.breakdown_us[1]))
      .num("queueing.quantile_us.closed", median(s.quantile_us[0]))
      .num("queueing.quantile_us.fallback", median(s.quantile_us[1]))
      .num("core.dimension_ms", median(s.dimension_ms))
      .num("core.dimension.models_per_call",
           s.kernels_per_model > 0.0
               ? mean(s.dimension_kernels) / s.kernels_per_model
               : std::nan(""))
      .num("core.sweep_ms", median(s.sweep_ms))
      .num("trace.overhead_ratio", traced_s / untraced_s);
  return out.str();
}

}  // namespace perfbench
