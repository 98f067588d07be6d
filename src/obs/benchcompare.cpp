#include "obs/benchcompare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace fpsq::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// One bench's comparable scalars: wall_s plus the metrics object.
struct BenchEntry {
  std::string name;
  std::vector<std::pair<std::string, double>> values;  // NaN = JSON null
};

std::vector<BenchEntry> extract_benches(const json::Value& doc) {
  const json::Value* array = nullptr;
  if (doc.is_array()) {
    array = &doc;  // v1: bare array
  } else if (doc.is_object()) {
    array = doc.find("benches");  // v2 envelope
  }
  if (array == nullptr || !array->is_array()) {
    throw std::runtime_error(
        "not a bench collection (expected a JSON array or an object "
        "with a \"benches\" array)");
  }
  std::vector<BenchEntry> out;
  out.reserve(array->array.size());
  for (const json::Value& b : array->array) {
    if (!b.is_object()) {
      throw std::runtime_error("bench entry is not a JSON object");
    }
    BenchEntry e;
    e.name = b.string_or("name", "");
    if (e.name.empty()) {
      throw std::runtime_error("bench entry has no \"name\"");
    }
    if (const json::Value* w = b.find("wall_s");
        w != nullptr && (w->is_number() || w->is_null())) {
      e.values.emplace_back("wall_s", w->is_number() ? w->number : kNaN);
    }
    if (const json::Value* m = b.find("metrics");
        m != nullptr && m->is_object()) {
      for (const auto& [key, v] : m->object) {
        e.values.emplace_back(key, v.is_number() ? v.number : kNaN);
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

const BenchEntry* find_bench(const std::vector<BenchEntry>& v,
                             const std::string& name) {
  for (const auto& e : v) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const double* find_value(const BenchEntry& e, const std::string& key) {
  for (const auto& [k, v] : e.values) {
    if (k == key) return &v;
  }
  return nullptr;
}

double rel_delta_of(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  if (denom == 0.0) return 0.0;
  return std::abs(a - b) / denom;
}

const char* severity_name(BenchDiffFinding::Severity s) {
  return s == BenchDiffFinding::Severity::kFail ? "fail" : "warn";
}

}  // namespace

MetricClass classify_metric(std::string_view key) {
  if (key == "threads" || key.rfind("cache_", 0) == 0) {
    return MetricClass::kInfo;
  }
  if (contains(key, "diff") || contains(key, "err")) {
    return MetricClass::kAccuracy;
  }
  if (key == "wall_s" || ends_with(key, "_s") ||
      contains(key, "events_per_sec") || contains(key, "speedup")) {
    return MetricClass::kTiming;
  }
  return MetricClass::kAccuracy;
}

const char* metric_class_name(MetricClass c) {
  switch (c) {
    case MetricClass::kTiming: return "timing";
    case MetricClass::kAccuracy: return "accuracy";
    case MetricClass::kInfo: return "info";
  }
  return "?";
}

int BenchDiffReport::exit_code() const {
  if (failures > 0) return 4;
  if (warnings > 0) return 3;
  return 0;
}

const char* BenchDiffReport::verdict() const {
  if (failures > 0) return "fail";
  if (warnings > 0) return "warn";
  return "pass";
}

std::string BenchDiffReport::to_markdown() const {
  std::string out;
  char buf[160];
  out += "# fpsq benchdiff\n\n";
  std::snprintf(buf, sizeof buf,
                "**verdict: %s** — %zu failure(s), %zu warning(s) over "
                "%zu bench(es), %zu compared metric(s)\n",
                verdict(), failures, warnings, benches_compared,
                metrics_compared);
  out += buf;
  if (findings.empty()) {
    out += "\nEvery compared metric is within tolerance.\n";
    return out;
  }
  out += "\n| bench | metric | class | baseline | current | rel delta |"
         " severity | note |\n";
  out += "|---|---|---|---|---|---|---|---|\n";
  for (const auto& f : findings) {
    out += "| " + f.bench + " | " + (f.metric.empty() ? "—" : f.metric) +
           " | ";
    out += metric_class_name(f.cls);
    out += " | ";
    if (f.has_values) {
      std::snprintf(buf, sizeof buf, "%.10g | %.10g | %.3g", f.baseline,
                    f.current, f.rel_delta);
      out += buf;
    } else {
      out += "— | — | —";
    }
    out += " | ";
    out += severity_name(f.severity);
    out += " | " + f.note + " |\n";
  }
  return out;
}

std::string BenchDiffReport::to_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"schema\": \"fpsq.benchdiff.v1\",\n  \"verdict\": \"";
  out += verdict();
  out += "\",\n  \"exit_code\": " + std::to_string(exit_code());
  out += ",\n  \"benches_compared\": " + std::to_string(benches_compared);
  out += ",\n  \"metrics_compared\": " + std::to_string(metrics_compared);
  out += ",\n  \"warnings\": " + std::to_string(warnings);
  out += ",\n  \"failures\": " + std::to_string(failures);
  out += ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"bench\": \"";
    json::escape_to(out, f.bench);
    out += "\", \"metric\": \"";
    json::escape_to(out, f.metric);
    out += "\", \"class\": \"";
    out += metric_class_name(f.cls);
    out += "\", \"severity\": \"";
    out += severity_name(f.severity);
    out += "\", \"baseline\": ";
    json::number_to(out, f.has_values ? f.baseline : kNaN);
    out += ", \"current\": ";
    json::number_to(out, f.has_values ? f.current : kNaN);
    out += ", \"rel_delta\": ";
    json::number_to(out, f.has_values ? f.rel_delta : kNaN);
    out += ", \"note\": \"";
    json::escape_to(out, f.note);
    out += "\"}";
  }
  out += findings.empty() ? "]" : "\n  ]";
  out += "\n}";
  return out;
}

BenchDiffReport diff_bench_collections(const json::Value& baseline,
                                       const json::Value& current,
                                       const BenchDiffOptions& options) {
  const auto base = extract_benches(baseline);
  const auto cur = extract_benches(current);
  BenchDiffReport report;

  auto add = [&report](BenchDiffFinding f) {
    if (f.severity == BenchDiffFinding::Severity::kFail) {
      ++report.failures;
    } else {
      ++report.warnings;
    }
    report.findings.push_back(std::move(f));
  };

  // Benches only present in the current run — reported as warnings
  // below, and used to hint at a likely rename when a baseline bench
  // went missing (renames otherwise look like one disappearance plus
  // one unrelated addition).
  std::string only_in_current;
  for (const BenchEntry& c : cur) {
    if (find_bench(base, c.name) == nullptr) {
      if (!only_in_current.empty()) only_in_current += ", ";
      only_in_current += c.name;
    }
  }

  for (const BenchEntry& b : base) {
    const BenchEntry* c = find_bench(cur, b.name);
    if (c == nullptr) {
      BenchDiffFinding f;
      f.bench = b.name;
      f.severity = BenchDiffFinding::Severity::kFail;
      f.note = "bench missing from current run";
      if (!only_in_current.empty()) {
        f.note += " (renamed? current-only benches: " + only_in_current +
                  " — refresh the baseline if intentional)";
      }
      add(std::move(f));
      continue;
    }
    ++report.benches_compared;
    for (const auto& [key, base_v] : b.values) {
      const MetricClass cls = classify_metric(key);
      if (cls == MetricClass::kInfo) continue;
      const double* cv = find_value(*c, key);
      BenchDiffFinding f;
      f.bench = b.name;
      f.metric = key;
      f.cls = cls;
      f.severity = cls == MetricClass::kAccuracy
                       ? BenchDiffFinding::Severity::kFail
                       : BenchDiffFinding::Severity::kWarn;
      if (cv == nullptr) {
        f.note = "metric missing from current run";
        add(std::move(f));
        continue;
      }
      ++report.metrics_compared;
      const bool base_nan = std::isnan(base_v);
      const bool cur_nan = std::isnan(*cv);
      if (base_nan || cur_nan) {
        if (base_nan != cur_nan) {
          f.note = base_nan ? "baseline value is null"
                            : "current value is null";
          add(std::move(f));
        }
        continue;
      }
      f.has_values = true;
      f.baseline = base_v;
      f.current = *cv;
      f.rel_delta = rel_delta_of(base_v, *cv);
      if (cls == MetricClass::kTiming) {
        const double allowed =
            options.timing_abs_tol +
            options.timing_rel_tol *
                std::max(std::abs(base_v), std::abs(*cv));
        if (std::abs(base_v - *cv) > allowed) {
          f.note = "timing delta beyond noise tolerance";
          add(std::move(f));
        }
      } else {
        const double allowed =
            options.accuracy_abs_tol +
            options.accuracy_rel_tol *
                std::max(std::abs(base_v), std::abs(*cv));
        if (std::abs(base_v - *cv) > allowed) {
          f.note = "accuracy drift beyond tolerance";
          add(std::move(f));
        }
      }
    }
    // Metrics the current run added: flag for a baseline refresh.
    for (const auto& [key, cur_v] : c->values) {
      (void)cur_v;
      if (classify_metric(key) == MetricClass::kInfo) continue;
      if (find_value(b, key) == nullptr) {
        BenchDiffFinding f;
        f.bench = b.name;
        f.metric = key;
        f.cls = classify_metric(key);
        f.severity = BenchDiffFinding::Severity::kWarn;
        f.note = "new metric (not in baseline — refresh it)";
        add(std::move(f));
      }
    }
  }
  for (const BenchEntry& c : cur) {
    if (find_bench(base, c.name) == nullptr) {
      BenchDiffFinding f;
      f.bench = c.name;
      f.severity = BenchDiffFinding::Severity::kWarn;
      f.note = "new bench (not in baseline — refresh it)";
      add(std::move(f));
    }
  }
  return report;
}

}  // namespace fpsq::obs
