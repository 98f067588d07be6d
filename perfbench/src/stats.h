// Small shared helpers: nearest-rank percentiles, a steady clock and a
// flat JSON object writer for the summaries the modes print.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of `v`; NaN when empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Builds `{"key":value,...}` with numbers at full precision.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return raw(key, buf);
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

}  // namespace perfbench
