#include "serve/engine.h"

#include <chrono>
#include <cstddef>
#include <utility>

#include "core/dimensioning.h"
#include "core/rtt_model.h"
#include "core/sweep.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace fpsq::serve {

namespace {

/// The response line of request `id` around its id-free body fragment
/// (everything from `"ok":...` to the closing brace).
std::string wrap(const std::string& id, const std::string& fragment) {
  std::string out = "{\"id\":\"";
  obs::json::escape_to(out, id);
  out += "\",";
  out += fragment;
  out += "}";
  return out;
}

std::string error_fragment(const std::string& code,
                           const std::string& detail) {
  std::string out = "\"ok\":false,\"error\":{\"code\":\"";
  obs::json::escape_to(out, code);
  out += "\",\"detail\":\"";
  obs::json::escape_to(out, detail);
  out += "\"}";
  return out;
}

std::string error_fragment(const err::SolverError& e) {
  return error_fragment(err::code_name(e.code), e.detail);
}

void append_field(std::string& out, const char* key, double v,
                  int precision) {
  out += "\"";
  out += key;
  out += "\":";
  append_number(out, v, precision);
}

std::string rtt_fragment(const Request& req, int precision) {
  auto created = core::RttModel::create(req.scenario, req.gamers);
  if (!created.ok()) return error_fragment(created.error());
  const auto model = std::move(created).take_or_throw();
  try {
    const auto b = model.breakdown_ms(req.epsilon);
    std::string out = "\"ok\":true,\"op\":\"rtt\",\"result\":{";
    append_field(out, "gamers", model.n_clients(), precision);
    out += ",";
    append_field(out, "rho_up", model.rho_up(), precision);
    out += ",";
    append_field(out, "rho_down", model.rho_down(), precision);
    out += ",";
    append_field(out, "rtt_mean_ms", model.rtt_mean_ms(), precision);
    out += ",";
    append_field(out, "rtt_quantile_ms", b.total_ms, precision);
    out += ",\"breakdown\":{";
    append_field(out, "deterministic_ms", b.deterministic_ms, precision);
    out += ",";
    append_field(out, "upstream_ms", b.upstream_ms, precision);
    out += ",";
    append_field(out, "burst_ms", b.burst_ms, precision);
    out += ",";
    append_field(out, "position_ms", b.position_ms, precision);
    out += "}}";
    return out;
  } catch (const err::SolverFailure& ex) {
    return error_fragment(ex.error());
  }
}

std::string dimension_fragment(const Request& req, int precision) {
  auto result = core::dimension_for_rtt_checked(req.scenario, req.bound_ms,
                                                req.epsilon);
  if (!result.ok()) return error_fragment(result.error());
  const auto d = std::move(result).take_or_throw();
  std::string out = "\"ok\":true,\"op\":\"dimension\",\"result\":{";
  append_field(out, "bound_ms", req.bound_ms, precision);
  out += ",";
  append_field(out, "rho_max", d.rho_max, precision);
  out += ",";
  append_field(out, "n_max", d.n_max, precision);
  out += ",\"n_max_int\":";
  out += std::to_string(d.n_max_int);
  out += ",";
  append_field(out, "rtt_at_max_ms", d.rtt_at_max_ms, precision);
  out += "}";
  return out;
}

std::string sweep_fragment(const Request& req, int precision) {
  const auto points =
      core::sweep_load_grid(req.scenario, req.epsilon, req.step);
  std::string out = "\"ok\":true,\"op\":\"sweep\",\"result\":{\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::RttSweepPoint& p = points[i];
    if (i > 0) out += ",";
    out += "{";
    append_field(out, "load", p.load, precision);
    out += ",";
    append_field(out, "gamers", p.n_clients, precision);
    out += ",";
    append_field(out, "rtt_quantile_ms", p.rtt_quantile_ms, precision);
    out += ",";
    append_field(out, "rtt_mean_ms", p.rtt_mean_ms, precision);
    out += ",\"status\":\"";
    out += p.failed() ? "failed" : "exact";
    out += "\"}";
  }
  out += "]}";
  return out;
}

/// Evaluates one request into its id-free response fragment. Failures of
/// every kind come back as error fragments; nothing escapes.
std::string evaluate_fragment(const Request& req, int precision) {
  try {
    switch (req.op) {
      case Op::kRtt: return rtt_fragment(req, precision);
      case Op::kDimension: return dimension_fragment(req, precision);
      case Op::kSweep: return sweep_fragment(req, precision);
    }
    return error_fragment("internal", "unhandled op");
  } catch (const err::SolverFailure& ex) {
    return error_fragment(ex.error());
  } catch (const std::exception& ex) {
    return error_fragment("internal", ex.what());
  }
}

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now - since).count();
}

}  // namespace

std::vector<std::string> Engine::execute(
    const std::vector<ParsedRequest>& batch) const {
  FPSQ_SPAN("serve.engine.execute");
  FPSQ_OBS_COUNT("serve.batches");
  FPSQ_OBS_HIST("serve.batch_size", static_cast<double>(batch.size()));
  std::vector<std::string> responses(batch.size());

  // Answer everything that needs no evaluation (malformed requests,
  // expired deadlines), then evaluate the rest once each, in parallel.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ParsedRequest& p = batch[i];
    if (!p.ok) {
      responses[i] = error_response(p.id, kBadRequest, p.error);
      FPSQ_OBS_COUNT("serve.errors");
      continue;
    }
    const Request& req = p.request;
    if (req.deadline_ms > 0.0 &&
        elapsed_ms(req.admitted_at) > req.deadline_ms) {
      responses[i] = error_response(
          req.id, kDeadlineExceeded,
          "deadline expired before execution started");
      FPSQ_OBS_COUNT("serve.timeouts");
      continue;
    }
    todo.push_back(i);
  }
  par::global_pool().parallel_for(
      todo.size(),
      [&](std::size_t t) {
        const Request& req = batch[todo[t]].request;
        const std::string fragment =
            evaluate_fragment(req, options_.precision);
        if (fragment.starts_with("\"ok\":false")) {
          FPSQ_OBS_COUNT("serve.errors");
        }
        responses[todo[t]] = wrap(req.id, fragment);
      },
      /*chunk=*/1);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].ok) {
      FPSQ_OBS_HIST("serve.request_latency_ms",
                    elapsed_ms(batch[i].request.admitted_at));
    }
    FPSQ_OBS_COUNT("serve.responses");
  }
  return responses;
}

std::string Engine::execute_one(const Request& request) const {
  return wrap(request.id, evaluate_fragment(request, options_.precision));
}

}  // namespace fpsq::serve
