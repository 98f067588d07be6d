#include "obs/manifest.h"

#include <ctime>
#include <thread>

#include "obs/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

// Build provenance is injected by src/CMakeLists.txt; the fallbacks keep
// non-CMake builds (e.g. a quick compiler-explorer paste) compiling.
#ifndef FPSQ_GIT_SHA
#define FPSQ_GIT_SHA "unknown"
#endif
#ifndef FPSQ_BUILD_TYPE
#define FPSQ_BUILD_TYPE "unknown"
#endif
#ifndef FPSQ_COMPILER
#define FPSQ_COMPILER "unknown"
#endif
#ifndef FPSQ_SANITIZER
#define FPSQ_SANITIZER "none"
#endif

namespace fpsq::obs {

namespace {

std::string detect_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
#endif
  return "unknown";
}

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

RunManifest& RunManifest::current() {
  static RunManifest* m = [] {
    auto* mf = new RunManifest();
    mf->git_sha = FPSQ_GIT_SHA;
    mf->build_type = FPSQ_BUILD_TYPE;
    mf->compiler = FPSQ_COMPILER;
    mf->sanitizer = FPSQ_SANITIZER;
#ifdef FPSQ_NO_METRICS
    mf->metrics_compiled = false;
#else
    mf->metrics_compiled = true;
#endif
    mf->hostname = detect_hostname();
    mf->timestamp_utc = utc_now_iso8601();
    mf->threads = std::thread::hardware_concurrency();
    return mf;
  }();
  return *m;
}

std::string RunManifest::to_json() const {
  std::string out;
  out.reserve(256);
  auto field = [&out](const char* key, const std::string& value,
                      bool first = false) {
    if (!first) out += ",";
    out += "\"";
    out += key;
    out += "\":\"";
    json::escape_to(out, value);
    out += "\"";
  };
  out += "{";
  field("schema", schema, /*first=*/true);
  field("git_sha", git_sha);
  field("build_type", build_type);
  field("compiler", compiler);
  field("sanitizer", sanitizer);
  out += ",\"metrics_compiled\":";
  out += metrics_compiled ? "true" : "false";
  field("hostname", hostname);
  field("timestamp_utc", timestamp_utc);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"seed\":";
  out += has_seed ? std::to_string(seed) : "null";
  out += "}";
  return out;
}

}  // namespace fpsq::obs
