#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "check/generator.h"
#include "core/scenario.h"

namespace perfbench {

std::uint64_t Rng::next() { return fpsq::check::splitmix64(state_); }

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string head(std::size_t index, const char* op) {
  return "{\"id\":\"r" + std::to_string(index) + "\",\"op\":\"" + op + "\"";
}

/// Request body after the id/op head; the id is prepended per use.
struct Template {
  const char* op;
  std::string body;
};

/// The check corpus seed the rtt_open points come from.
constexpr std::uint64_t kCorpusSeed = 1;

/// The full scenario object, every field explicit (units of the CLI
/// flags: c in Mb/s, rup/rdown in kb/s).
std::string full_scenario(const fpsq::core::AccessScenario& s) {
  return ",\"scenario\":{\"k\":" + std::to_string(s.erlang_k) +
         ",\"tick\":" + num(s.tick_ms) +
         ",\"ps\":" + num(s.server_packet_bytes) +
         ",\"pc\":" + num(s.client_packet_bytes) +
         ",\"c\":" + num(s.bottleneck_bps / 1e6) +
         ",\"rup\":" + num(s.uplink_bps / 1e3) +
         ",\"rdown\":" + num(s.downlink_bps / 1e3) +
         ",\"prop\":" + num(s.propagation_ms) +
         ",\"proc\":" + num(s.server_processing_ms) +
         ",\"jitter\":" + num(s.tick_jitter_cov) + "}";
}

/// Shuffles `bodies` with `rng` and prefixes ids r0.. in the new order.
std::vector<std::string> shuffled(std::vector<Template> bodies, Rng rng) {
  for (std::size_t i = bodies.size(); i > 1; --i) {
    std::swap(bodies[i - 1], bodies[rng.next() % i]);
  }
  std::vector<std::string> out;
  out.reserve(bodies.size());
  for (const Template& t : bodies) {
    out.push_back(head(out.size(), t.op) + t.body);
  }
  return out;
}

/// rtt_open: the first `count` points of the check corpus with K >= 2
/// (the combined model's domain), each with its own scenario and epsilon
/// — so no two requests share a work key. The corpus is fixed (check
/// seed 1); the run seed only orders it. Every run of a given length
/// therefore evaluates the same heavy-tailed set of points (1 in ~100
/// costs over 25 ms in-process), and seeds differ in arrival order.
std::vector<std::string> rtt_open(std::uint64_t seed, std::size_t count) {
  std::vector<Template> points;
  points.reserve(count);
  for (std::size_t i = 0; points.size() < count; ++i) {
    const auto p = fpsq::check::sample_point(kCorpusSeed, i);
    if (p.scenario.erlang_k < 2) continue;
    points.push_back({"rtt", full_scenario(p.scenario) + ",\"eps\":" +
                                 num(p.epsilon) + ",\"gamers\":" +
                                 num(p.n_clients) + "}"});
  }
  return shuffled(std::move(points), Rng(seed ^ 0x7274745f6f70656eULL));
}

/// One portal / planning scenario of the paper's Section-4 family:
/// only K, T and P_S differ from the defaults.
struct Family {
  int k;
  double tick;
  double ps;
  [[nodiscard]] fpsq::core::AccessScenario scenario() const {
    fpsq::core::AccessScenario s;
    s.erlang_k = k;
    s.tick_ms = tick;
    s.server_packet_bytes = ps;
    return s;
  }
  [[nodiscard]] std::string json() const {
    return ",\"scenario\":{\"k\":" + std::to_string(k) +
           ",\"tick\":" + num(tick) + ",\"ps\":" + num(ps) + "}";
  }
};

/// Integer gamer count at downlink load `rho` (eq. 37, rounded).
double gamers_at(const Family& f, double rho) {
  return std::max(1.0, std::round(f.scenario().clients_for_downlink_load(rho)));
}

/// Zipf(1) sampler over a catalogue whose popularity ranking is fixed
/// (independent of the run seed), so every seed draws from the same
/// traffic distribution and only the sequence changes.
class Popularity {
 public:
  explicit Popularity(std::vector<Template> items) : items_(std::move(items)) {
    Rng rank(0x706f7274616cULL);  // fixed ranking permutation
    for (std::size_t i = items_.size(); i > 1; --i) {
      std::swap(items_[i - 1], items_[rank.next() % i]);
    }
    double acc = 0.0;
    for (std::size_t r = 0; r < items_.size(); ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  [[nodiscard]] const Template& draw(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto idx = static_cast<std::size_t>(it - cdf_.begin());
    return items_[std::min(idx, items_.size() - 1)];
  }

 private:
  std::vector<Template> items_;
  std::vector<double> cdf_;
};

std::vector<Family> portal_families() {
  std::vector<Family> out;
  for (const int k : {2, 9, 20}) {
    for (const double tick : {40.0, 60.0}) {
      for (const double ps : {75.0, 100.0, 125.0}) {
        out.push_back({k, tick, ps});
      }
    }
  }
  return out;
}

/// portal_mix: ~90% rtt / 8% dimension / 2% sweep over a fixed catalogue
/// of the paper's Section-4 family with skewed popularity, so requests
/// repeat within and across micro-batches. The catalogue (306 rtt, 72
/// dimension and 18 sweep templates), the Zipf(1) law and the op mix are
/// assumptions standing in for the "repeats of a handful of scenario
/// configurations" of docs/SERVING.md; no traffic log backs them.
std::vector<std::string> portal_mix(std::uint64_t seed, std::size_t count) {
  std::vector<Template> rtt, dim, sweep;
  for (const Family& f : portal_families()) {
    for (int level = 1; level <= 17; ++level) {
      rtt.push_back({"rtt", f.json() + ",\"gamers\":" +
                                num(gamers_at(f, 0.05 * level)) + "}"});
    }
    for (const double bound : {50.0, 60.0, 75.0, 100.0}) {
      dim.push_back({"dimension", f.json() + ",\"bound\":" + num(bound) + "}"});
    }
    sweep.push_back({"sweep", f.json() + ",\"step\":0.1}"});
  }
  const Popularity rtt_pop(std::move(rtt)), dim_pop(std::move(dim)),
      sweep_pop(std::move(sweep));
  // The multiset of requests is drawn with a fixed seed, so every run of
  // a given length carries the same work; the run seed orders it.
  Rng draw(0x6d69785f706f7274ULL);
  std::vector<Template> picked;
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = draw.uniform();
    picked.push_back(u < 0.90   ? rtt_pop.draw(draw)
                     : u < 0.98 ? dim_pop.draw(draw)
                                : sweep_pop.draw(draw));
  }
  return shuffled(std::move(picked), Rng(seed ^ 0x706f7274616c5fULL));
}

}  // namespace

std::vector<std::string> make_requests(const std::string& workload,
                                       std::uint64_t seed,
                                       std::size_t count) {
  if (workload == "rtt_open") return rtt_open(seed, count);
  if (workload == "portal_mix") return portal_mix(seed, count);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t count) {
  // A Poisson process conditioned on `count` arrivals in [0, count/rate]
  // places them as sorted independent uniforms: exponential gaps, yet
  // every run of one length spans the same time.
  Rng rng(seed ^ 0x706f6973736f6eULL);
  const double span = static_cast<double>(count) / rate;
  std::vector<double> out(count);
  for (double& t : out) t = span * rng.uniform();
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
