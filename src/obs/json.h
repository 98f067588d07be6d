// fpsq::obs::json — minimal JSON support shared by the observability
// layer: a string-escape helper (used by the metrics exporter, the run
// manifest and bench::JsonReport) and a small recursive-descent parser
// used by `fpsq benchdiff` and the timeline/manifest round-trip tests.
//
// The parser handles the full JSON grammar (objects, arrays, strings
// with escapes, numbers, booleans, null) but is deliberately simple:
// the documents it reads — BENCH_*.json, fpsq.metrics.v2 snapshots,
// fpsq.timeline.v1 series — are all machine-written by this repo.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fpsq::obs::json {

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters). Does not add the surrounding quotes.
void escape_to(std::string& out, std::string_view s);

/// Returns `s` JSON-escaped (without surrounding quotes).
[[nodiscard]] std::string escape(std::string_view s);

/// Appends `v` as a JSON number with `precision` significant digits
/// (clamped to 1..17), byte for byte what printf's "%.{precision}g"
/// prints; 17 round-trips exactly. NaN and infinities become `null`
/// (they are not representable in JSON).
void number_to(std::string& out, double v, int precision = 17);

/// A parsed JSON value. Object member order is preserved.
struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool is_null() const { return type == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type == Type::kString; }
  [[nodiscard]] bool is_array() const { return type == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// `find(key)->number` with a fallback for absent / non-numeric.
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback) const;

  /// `find(key)->string` with a fallback for absent / non-string.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
};

/// Parses a complete JSON document; trailing non-whitespace is an
/// error. Throws std::runtime_error with a byte offset on malformed
/// input.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace fpsq::obs::json
