#include "serve/request.h"

#include <cctype>
#include <cmath>
#include <string_view>

#include "obs/json.h"

namespace fpsq::serve {

namespace {

using obs::json::Value;

/// Validation failure inside parse_request; caught at the top and turned
/// into the bad_request outcome (never escapes this translation unit).
struct RequestError {
  std::string detail;
};

[[noreturn]] void fail(std::string detail) {
  throw RequestError{std::move(detail)};
}

double number_field(const Value& obj, const char* key, double fallback) {
  const Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) fail(std::string("'") + key + "' must be a number");
  if (!std::isfinite(v->number)) {
    fail(std::string("'") + key + "' must be finite");
  }
  return v->number;
}

void require(bool ok, const char* key, const char* constraint) {
  if (!ok) fail(std::string("'") + key + "' must be " + constraint);
}

/// The one scenario validator: `fpsq serve` requests and the CLI's
/// scenario flags (which tools/fpsq.cpp turns into this object) both
/// land here.
core::AccessScenario scenario_field(const Value& root) {
  core::AccessScenario s;
  const Value* sc = root.find("scenario");
  if (sc == nullptr) return s;  // paper Section-4 defaults
  if (!sc->is_object()) fail("'scenario' must be an object");
  for (const auto& [key, value] : sc->object) {
    (void)value;
    bool known = false;
    for (const char* k : kScenarioKeys) known = known || key == k;
    if (!known) fail("unknown scenario key '" + key + "'");
  }
  // K >= 2: the combined model's uniform-position law (eq. 34) has
  // K - 1 Erlang phases, so no op can evaluate K = 1.
  const double k = number_field(*sc, "k", 9.0);
  require(k >= 2.0 && k <= 512.0 && k == std::floor(k), "k",
          "an integer in [2, 512]");
  s.erlang_k = static_cast<int>(k);
  s.tick_ms = number_field(*sc, "tick", 40.0);
  s.server_packet_bytes = number_field(*sc, "ps", 125.0);
  s.client_packet_bytes = number_field(*sc, "pc", 80.0);
  s.bottleneck_bps = number_field(*sc, "c", 5.0) * 1e6;
  s.uplink_bps = number_field(*sc, "rup", 128.0) * 1e3;
  s.downlink_bps = number_field(*sc, "rdown", 1024.0) * 1e3;
  require(s.tick_ms > 0.0, "tick", "> 0");
  require(s.server_packet_bytes > 0.0, "ps", "> 0");
  require(s.client_packet_bytes > 0.0, "pc", "> 0");
  require(s.bottleneck_bps > 0.0, "c", "> 0");
  require(s.uplink_bps > 0.0, "rup", "> 0");
  require(s.downlink_bps > 0.0, "rdown", "> 0");
  s.propagation_ms = number_field(*sc, "prop", 0.0);
  s.server_processing_ms = number_field(*sc, "proc", 0.0);
  s.tick_jitter_cov = number_field(*sc, "jitter", 0.0);
  require(s.propagation_ms >= 0.0, "prop", ">= 0");
  require(s.server_processing_ms >= 0.0, "proc", ">= 0");
  require(s.tick_jitter_cov >= 0.0, "jitter", ">= 0");
  s.validate();  // invalid_argument cannot fire after the checks above
  return s;
}

std::string id_field(const Value& root) {
  const Value* id = root.find("id");
  if (id == nullptr) return "";
  if (id->is_string()) return id->string;
  if (id->is_number()) {
    std::string out;
    obs::json::number_to(out, id->number);
    return out;
  }
  fail("'id' must be a string or a number");
}

void append_key(std::string& key, double v) {
  key += ',';
  obs::json::number_to(key, v);
}

}  // namespace

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kRtt: return "rtt";
    case Op::kDimension: return "dimension";
    case Op::kSweep: return "sweep";
  }
  return "?";
}

std::string Request::work_key() const {
  std::string key = op_name(op);
  append_key(key, static_cast<double>(scenario.erlang_k));
  append_key(key, scenario.tick_ms);
  append_key(key, scenario.server_packet_bytes);
  append_key(key, scenario.client_packet_bytes);
  append_key(key, scenario.bottleneck_bps);
  append_key(key, scenario.uplink_bps);
  append_key(key, scenario.downlink_bps);
  append_key(key, scenario.propagation_ms);
  append_key(key, scenario.server_processing_ms);
  append_key(key, scenario.tick_jitter_cov);
  append_key(key, epsilon);
  switch (op) {
    case Op::kRtt: append_key(key, gamers); break;
    case Op::kDimension: append_key(key, bound_ms); break;
    case Op::kSweep: append_key(key, step); break;
  }
  return key;
}

ParsedRequest parse_request(const std::string& line) {
  Value root;
  try {
    root = obs::json::parse(line);
  } catch (const std::exception& e) {
    ParsedRequest out;
    out.error = std::string("malformed JSON: ") + e.what();
    return out;
  }
  return validate_request(root);
}

ParsedRequest validate_request(const Value& root) {
  ParsedRequest out;
  try {
    if (!root.is_object()) fail("request must be a JSON object");
    out.id = id_field(root);
    out.request.id = out.id;

    static constexpr const char* kKnown[] = {
        "id", "op", "scenario", "eps", "gamers", "bound", "step",
        "deadline_ms"};
    for (const auto& [key, value] : root.object) {
      (void)value;
      bool known = false;
      for (const char* k : kKnown) known = known || key == k;
      if (!known) fail("unknown request key '" + key + "'");
    }

    const Value* op = root.find("op");
    if (op == nullptr) fail("missing 'op'");
    if (!op->is_string()) fail("'op' must be a string");
    if (op->string == "rtt") {
      out.request.op = Op::kRtt;
    } else if (op->string == "dimension") {
      out.request.op = Op::kDimension;
    } else if (op->string == "sweep") {
      out.request.op = Op::kSweep;
    } else {
      fail("unknown op '" + op->string +
           "' (use rtt | dimension | sweep)");
    }

    out.request.scenario = scenario_field(root);
    out.request.epsilon = number_field(root, "eps", 1e-5);
    require(out.request.epsilon > 0.0 && out.request.epsilon < 1.0, "eps",
            "in (0, 1)");
    out.request.gamers = number_field(root, "gamers", 60.0);
    require(out.request.gamers > 0.0, "gamers", "> 0");
    out.request.bound_ms = number_field(root, "bound", 50.0);
    require(out.request.bound_ms > 0.0, "bound", "> 0 [ms]");
    out.request.step = number_field(root, "step", 0.05);
    require(out.request.step > 0.0 && out.request.step < 0.95, "step",
            "in (0, 0.95)");
    out.request.deadline_ms = number_field(root, "deadline_ms", 0.0);
    require(out.request.deadline_ms >= 0.0, "deadline_ms", ">= 0");
    out.ok = true;
  } catch (const RequestError& e) {
    out.error = e.detail;
  } catch (const std::exception& e) {
    out.error = e.what();  // defensive; validation precedes validate()
  }
  return out;
}

std::string error_response(const std::string& id, const std::string& code,
                           const std::string& detail) {
  std::string out = "{\"id\":\"";
  obs::json::escape_to(out, id);
  out += "\",\"ok\":false,\"error\":{\"code\":\"";
  obs::json::escape_to(out, code);
  out += "\",\"detail\":\"";
  obs::json::escape_to(out, detail);
  out += "\"}}";
  return out;
}

std::string error_response(const std::string& id,
                           const err::SolverError& e) {
  return error_response(id, err::code_name(e.code), e.detail);
}

}  // namespace fpsq::serve
