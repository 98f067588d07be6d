// fpsq_perfbench — the compiled half of the repo benchmark; run.py
// drives it (see perfbench/README.md).
//
//   fpsq_perfbench requests --workload W --seed S --count N
//       print N request lines of workload W (NDJSON, ids r0..)
//   fpsq_perfbench keys --requests FILE
//       print serve::Request::work_key() of every line
//   fpsq_perfbench schedule --seed S --rate R --count N
//       print the N Poisson send offsets [s], one per line
//   fpsq_perfbench oracle --requests FILE --threads T
//       per line: in-process ms <TAB> Engine::execute_one response, each
//       on a cold SolverCache (the one-shot CLI's state); the times are the
//       in-process half of tools.cli_overhead_ms
//   fpsq_perfbench load --port P --requests FILE --rate R --seed S
//                       --connections C --check N --threads T
//       open-loop load of every line of FILE against
//       `fpsq serve --listen P`; prints a summary
//   fpsq_perfbench replay --requests FILE --batch B
//                         [--spans-out FILE] [--table-out FILE]
//       traced in-process replay; prints the per-layer metrics
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "loadgen.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "replay.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "stats.h"
#include "workloads.h"

namespace {

using Flags = std::map<std::string, std::string>;

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs at '" + key +
                                  "'");
    }
    f[key.substr(2)] = argv[i + 1];
  }
  return f;
}

const std::string& need(const Flags& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double number(const Flags& f, const std::string& key) {
  const std::string& text = need(f, key);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw std::invalid_argument("--" + key + ": not a number '" + text + "'");
  }
  return v;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

int cmd_oracle(const Flags& f) {
  fpsq::par::set_global_thread_count(
      static_cast<unsigned>(number(f, "threads")));
  const fpsq::serve::Engine engine;
  for (const auto& line : read_lines(need(f, "requests"))) {
    const auto parsed = fpsq::serve::parse_request(line);
    if (!parsed.ok) throw std::runtime_error("bad request: " + parsed.error);
    fpsq::queueing::SolverCache::global().clear();
    const double t0 = perfbench::now_s();
    const std::string response = engine.execute_one(parsed.request);
    std::printf("%.6f\t%s\n", 1e3 * (perfbench::now_s() - t0),
                response.c_str());
  }
  return 0;
}

int run(const std::string& mode, const Flags& f) {
  if (mode == "requests") {
    const auto seed = static_cast<std::uint64_t>(number(f, "seed"));
    const auto count = static_cast<std::size_t>(number(f, "count"));
    for (const auto& line :
         perfbench::make_requests(need(f, "workload"), seed, count)) {
      std::puts(line.c_str());
    }
    return 0;
  }
  if (mode == "keys") {
    for (const auto& line : read_lines(need(f, "requests"))) {
      const auto parsed = fpsq::serve::parse_request(line);
      if (!parsed.ok) throw std::runtime_error("bad request: " + parsed.error);
      std::puts(parsed.request.work_key().c_str());
    }
    return 0;
  }
  if (mode == "schedule") {
    for (const double t : perfbench::poisson_schedule(
             static_cast<std::uint64_t>(number(f, "seed")), number(f, "rate"),
             static_cast<std::size_t>(number(f, "count")))) {
      std::printf("%.9f\n", t);
    }
    return 0;
  }
  if (mode == "oracle") return cmd_oracle(f);
  if (mode == "load") {
    perfbench::LoadOptions opt;
    opt.port = static_cast<int>(number(f, "port"));
    opt.rate = number(f, "rate");
    opt.seed = static_cast<std::uint64_t>(number(f, "seed"));
    opt.connections = static_cast<int>(number(f, "connections"));
    opt.check_sample = static_cast<std::size_t>(number(f, "check"));
    fpsq::par::set_global_thread_count(
        static_cast<unsigned>(number(f, "threads")));
    std::puts(perfbench::run_load(read_lines(need(f, "requests")), opt).c_str());
    return 0;
  }
  if (mode == "replay") {
    perfbench::ReplayOptions opt;
    opt.batch = static_cast<std::size_t>(number(f, "batch"));
    if (f.count("spans-out") != 0) opt.spans_out = f.at("spans-out");
    if (f.count("table-out") != 0) opt.table_out = f.at("table-out");
    std::puts(
        perfbench::run_replay(read_lines(need(f, "requests")), opt).c_str());
    return 0;
  }
  throw std::invalid_argument("unknown mode '" + mode + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fpsq_perfbench requests|keys|schedule|oracle|load|"
                 "replay [--flag value]...\n");
    return 2;
  }
  try {
    return run(argv[1], parse_flags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpsq_perfbench %s: %s\n", argv[1], e.what());
    return 1;
  }
}
