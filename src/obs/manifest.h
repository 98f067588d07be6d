// fpsq::obs — run manifest (schema fpsq.manifest.v1): the provenance
// record embedded in every metrics snapshot, timeline series, BENCHJSON
// line and `fpsq report`, so a number in a benchmark file can always be
// traced back to the build and run configuration that produced it.
//
// Build-time fields (git sha, build type, compiler, sanitizer, the
// FPSQ_NO_METRICS switch) are baked in by CMake; host/time fields are
// captured once per process on first access, so every manifest written
// by one run is identical. Run-scoped fields (threads, seed) are
// mutable: the CLI and the benches set them from their actual
// configuration before exporting anything.
#pragma once

#include <cstdint>
#include <string>

namespace fpsq::obs {

struct RunManifest {
  std::string schema = "fpsq.manifest.v1";
  std::string git_sha;        ///< HEAD at configure time ("unknown" outside git)
  std::string build_type;     ///< CMAKE_BUILD_TYPE
  std::string compiler;       ///< "<id> <version>"
  std::string sanitizer;      ///< "address", "undefined" or "none"
  bool metrics_compiled = true;  ///< false under -DFPSQ_NO_METRICS
  std::string hostname;
  std::string timestamp_utc;  ///< ISO 8601, captured at process start
  unsigned threads = 0;       ///< worker count (hardware default until set)
  bool has_seed = false;      ///< seed is meaningful only when set
  std::uint64_t seed = 0;

  /// Serializes as a compact (single-line) JSON object.
  [[nodiscard]] std::string to_json() const;

  /// The process-wide manifest. Build/host/time fields are filled on
  /// first call; callers mutate the run-scoped fields in place.
  static RunManifest& current();
};

}  // namespace fpsq::obs
