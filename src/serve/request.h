// fpsq::serve — request/response model of the batched serving engine
// behind `fpsq serve` (see docs/SERVING.md).
//
// Requests arrive as newline-delimited JSON objects (one request per
// line) and are parsed with the obs::json recursive-descent parser.
// Parsing and validation NEVER throw out of this layer: every failure —
// malformed JSON, unknown op, an out-of-range scenario parameter — is
// returned as a structured error that serializes to an
// `{"id":...,"ok":false,"error":{"code":...,"detail":...}}` response,
// mirroring the fpsq::err taxonomy used by the solver stack. Solver
// failures during execution reuse err::code_name() codes verbatim;
// serving adds three transport-level codes of its own:
//
//     bad_request        the request line could not be parsed/validated
//     shed               admission control dropped the request (queue full)
//     deadline_exceeded  the request expired before execution started
//
// The one-shot CLI commands `fpsq rtt` / `fpsq dimension` / `fpsq sweep`
// are clients of this model: they build their request from the command
// line through validate_request() and print Engine::execute_one()'s
// response, so a served response carries exactly the numbers the CLI
// prints (see docs/SERVING.md for the field-by-field schema).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "core/scenario.h"
#include "err/error.h"
#include "obs/json.h"

namespace fpsq::serve {

/// Serving-layer error codes (solver codes come from err::code_name).
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kShed = "shed";
inline constexpr const char* kDeadlineExceeded = "deadline_exceeded";

enum class Op {
  kRtt,        ///< quantile + breakdown for one (scenario, gamers) point
  kDimension,  ///< max load / gamers under an RTT bound (eq. 37)
  kSweep,      ///< CSV-shaped load sweep (status per point)
};

/// Stable wire name of an op ("rtt", "dimension", "sweep").
[[nodiscard]] const char* op_name(Op op) noexcept;

/// Keys of the request's "scenario" object, which are also the CLI's
/// scenario flags (c in Mb/s, rup/rdown in kb/s, times in ms).
inline constexpr const char* kScenarioKeys[] = {
    "k", "tick", "ps", "pc", "c", "rup", "rdown", "prop", "proc", "jitter"};

/// One validated request. Omitted fields take the paper's Section-4
/// defaults, so a minimal `{"op":"rtt"}` line is a valid request.
struct Request {
  std::string id;  ///< client correlation token, echoed verbatim
  Op op = Op::kRtt;
  core::AccessScenario scenario;  ///< paper Section-4 defaults
  double epsilon = 1e-5;
  double gamers = 60.0;     ///< rtt
  double bound_ms = 50.0;   ///< dimension
  double step = 0.05;       ///< sweep
  /// Per-request deadline relative to admission; 0 = none. An expired
  /// request is answered with `deadline_exceeded` instead of being
  /// executed: the engine sheds work instead of stalling the batch.
  double deadline_ms = 0.0;
  /// Stamped at admission; execution checks the deadline against it.
  std::chrono::steady_clock::time_point admitted_at;

  /// Canonical key of the evaluation: two requests with equal keys get
  /// byte-identical response bodies (everything after the id), since the
  /// key holds every field an evaluation reads and excludes the id,
  /// deadline and admission time.
  [[nodiscard]] std::string work_key() const;
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  bool ok = false;
  Request request;       ///< valid when ok
  std::string id;        ///< best-effort id recovered even on failure
  std::string error;     ///< bad_request detail when !ok
};

/// Parses + validates one NDJSON request line. Never throws.
[[nodiscard]] ParsedRequest parse_request(const std::string& line);

/// Validates an already parsed request object; the whole of
/// parse_request() after the JSON parse. Never throws.
[[nodiscard]] ParsedRequest validate_request(const obs::json::Value& root);

/// The error response line of request `id` (`"ok":false` with a code
/// and a detail).
[[nodiscard]] std::string error_response(const std::string& id,
                                         const std::string& code,
                                         const std::string& detail);
[[nodiscard]] std::string error_response(const std::string& id,
                                         const err::SolverError& e);

}  // namespace fpsq::serve
