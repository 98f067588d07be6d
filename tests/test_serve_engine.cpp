// serve::parse_request + serve::Engine: request validation, structured
// error responses, micro-batches with duplicates, and the bit-identity
// contract — a batched (cache-warmed) response must equal the cold
// one-shot evaluation byte for byte.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "err/fault_injection.h"
#include "obs/json.h"
#include "par/thread_pool.h"
#include "queueing/solver_cache.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace fpsq {
namespace {

using serve::Engine;
using serve::Op;
using serve::ParsedRequest;
using serve::parse_request;

/// Response body after the id field, for comparing duplicate requests.
std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\",\"ok\":");
  EXPECT_NE(pos, std::string::npos) << response;
  return response.substr(pos + 2);
}

std::string error_code_of(const std::string& response) {
  const auto v = obs::json::parse(response);
  const auto* error = v.find("error");
  if (error == nullptr) return "";
  return error->string_or("code", "");
}

ParsedRequest admitted(const std::string& line) {
  ParsedRequest p = parse_request(line);
  p.request.admitted_at = std::chrono::steady_clock::now();
  return p;
}

TEST(ServeRequest, ParsesDefaultsAndFields) {
  const auto p = parse_request(
      R"({"id":"r1","op":"rtt","gamers":75.5,"eps":1e-6,)"
      R"("scenario":{"k":20,"tick":50,"c":10},"deadline_ms":250})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.id, "r1");
  EXPECT_EQ(p.request.op, Op::kRtt);
  EXPECT_DOUBLE_EQ(p.request.gamers, 75.5);
  EXPECT_DOUBLE_EQ(p.request.epsilon, 1e-6);
  EXPECT_EQ(p.request.scenario.erlang_k, 20);
  EXPECT_DOUBLE_EQ(p.request.scenario.tick_ms, 50.0);
  EXPECT_DOUBLE_EQ(p.request.scenario.bottleneck_bps, 10e6);
  // Unset scenario keys keep the paper defaults, like the CLI flags.
  EXPECT_DOUBLE_EQ(p.request.scenario.server_packet_bytes, 125.0);
  EXPECT_DOUBLE_EQ(p.request.deadline_ms, 250.0);
}

TEST(ServeRequest, MinimalRequestIsValid) {
  const auto p = parse_request(R"({"op":"rtt"})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_DOUBLE_EQ(p.request.gamers, 60.0);
  EXPECT_DOUBLE_EQ(p.request.epsilon, 1e-5);
  EXPECT_TRUE(p.request.id.empty());
}

TEST(ServeRequest, NumericIdIsStringified) {
  const auto p = parse_request(R"({"id":7,"op":"sweep"})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.id, "7");
}

TEST(ServeRequest, RejectsMalformedAndInvalid) {
  EXPECT_FALSE(parse_request("not json").ok);
  EXPECT_FALSE(parse_request(R"(["array"])").ok);
  EXPECT_FALSE(parse_request(R"({"gamers":60})").ok);  // missing op
  EXPECT_FALSE(parse_request(R"({"op":"frobnicate"})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"rtt","gamers":-5})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"rtt","eps":1.5})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"rtt","unknown_key":1})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"rtt","scenario":{"kk":9}})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"rtt","scenario":{"k":0}})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"sweep","step":0.96})").ok);
  EXPECT_FALSE(parse_request(R"({"op":"rtt","deadline_ms":-1})").ok);
  // The id survives a failed validation so the error can be correlated.
  const auto p = parse_request(R"({"id":"x","op":"rtt","gamers":0})");
  EXPECT_FALSE(p.ok);
  EXPECT_EQ(p.id, "x");
}

TEST(ServeRequest, WorkKeyIgnoresIdAndDeadline) {
  const auto a =
      parse_request(R"({"id":"a","op":"rtt","gamers":60})").request;
  const auto b =
      parse_request(R"({"id":"b","op":"rtt","gamers":60,"deadline_ms":9})")
          .request;
  const auto c =
      parse_request(R"({"id":"a","op":"rtt","gamers":61})").request;
  const auto d = parse_request(R"({"id":"a","op":"sweep"})").request;
  EXPECT_EQ(a.work_key(), b.work_key());
  EXPECT_NE(a.work_key(), c.work_key());
  EXPECT_NE(a.work_key(), d.work_key());
}

TEST(ServeEngine, BadRequestGetsStructuredResponse) {
  Engine engine;
  const auto responses = engine.execute({admitted("{\"op\":13}")});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(error_code_of(responses[0]), "bad_request");
  // The response itself must be valid JSON.
  EXPECT_NO_THROW((void)obs::json::parse(responses[0]));
}

TEST(ServeEngine, ErlangOrderOneIsABadRequestForEveryOp) {
  // K = 1 has no uniform-position law (eq. 34 needs K >= 2): it must be
  // rejected up front, not answered by a sweep of failed points.
  Engine engine;
  const auto responses = engine.execute(
      {admitted(R"({"id":"r","op":"rtt","scenario":{"k":1}})"),
       admitted(R"({"id":"d","op":"dimension","scenario":{"k":1}})"),
       admitted(R"({"id":"s","op":"sweep","scenario":{"k":1}})")});
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& r : responses) {
    EXPECT_EQ(error_code_of(r), "bad_request") << r;
    EXPECT_NE(r.find("'k' must be an integer in [2, 512]"),
              std::string::npos)
        << r;
  }
  EXPECT_TRUE(parse_request(R"({"op":"sweep","scenario":{"k":2}})").ok);
}

TEST(ServeEngine, UnstableScenarioMapsToErrTaxonomy) {
  Engine engine;
  // N = 500 puts the downlink load at 2.5: kUnstable from the taxonomy.
  const auto responses =
      engine.execute({admitted(R"({"id":"u","op":"rtt","gamers":500})")});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(error_code_of(responses[0]), "unstable");
}

TEST(ServeEngine, InjectedSolverFaultSurfacesAsErrorResponse) {
  err::clear_faults();
  err::inject_fault("queueing.dek1", err::SolverErrorCode::kNonConvergence);
  Engine engine;
  const auto responses =
      engine.execute({admitted(R"({"id":"f","op":"rtt","gamers":60})")});
  err::clear_faults();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(error_code_of(responses[0]), "non_convergence");
}

TEST(ServeEngine, ExpiredDeadlineIsShedBeforeExecution) {
  Engine engine;
  ParsedRequest p =
      parse_request(R"({"id":"late","op":"rtt","deadline_ms":5})");
  ASSERT_TRUE(p.ok);
  p.request.admitted_at = std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(1000);
  const auto responses = engine.execute({p});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(error_code_of(responses[0]), "deadline_exceeded");
}

TEST(ServeEngine, DuplicateRequestsCarryTheirOwnIds) {
  Engine engine;
  const auto responses = engine.execute({
      admitted(R"({"id":"first","op":"rtt","gamers":60})"),
      admitted(R"({"id":"second","op":"rtt","gamers":60})"),
  });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0], responses[1]);  // ids differ...
  EXPECT_EQ(body_of(responses[0]), body_of(responses[1]));  // ...bodies not
  EXPECT_NE(responses[0].find("\"id\":\"first\""), std::string::npos);
  EXPECT_NE(responses[1].find("\"id\":\"second\""), std::string::npos);
}

// The serving guarantee of docs/SERVING.md: a response produced from a
// cache-warmed batch with duplicates equals the cold one-shot
// evaluation of the same request byte for byte, at any thread count.
TEST(ServeEngine, BatchedResponsesBitIdenticalToColdOneShot) {
  auto& cache = queueing::SolverCache::global();
  Engine engine;

  const std::vector<std::string> lines = {
      R"({"id":"q0","op":"rtt","gamers":60})",
      R"({"id":"q1","op":"rtt","gamers":60})",
      R"({"id":"q2","op":"rtt","gamers":130,"scenario":{"k":20}})",
      R"({"id":"q3","op":"dimension","bound":50})",
      R"({"id":"q4","op":"dimension","bound":50})",
      R"({"id":"q5","op":"sweep","step":0.3})",
      R"({"id":"q6","op":"rtt","gamers":130,"scenario":{"k":20}})",
  };

  // Cold one-shots: fresh cache per request, single thread.
  par::set_global_thread_count(1);
  std::vector<std::string> oneshot;
  for (const auto& line : lines) {
    cache.clear();
    const auto p = parse_request(line);
    ASSERT_TRUE(p.ok) << p.error;
    oneshot.push_back(engine.execute_one(p.request));
  }

  // One warm batch on a parallel pool: duplicates + shared cache.
  par::set_global_thread_count(4);
  cache.clear();
  std::vector<ParsedRequest> batch;
  for (const auto& line : lines) batch.push_back(admitted(line));
  const auto responses = engine.execute(batch);

  ASSERT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(responses[i], oneshot[i]) << "request " << i;
  }
  par::set_global_thread_count(1);
}

// Cache history never changes an answer: a sweep served after an rtt
// request warmed the cache equals, byte for byte at full precision, the
// same sweep evaluated from a cleared cache. The sweep's load-0.8 point
// (gamers 299.99999999999994) sits one ulp below the rtt
// request's 300 gamers, so the two must not share a solve.
TEST(ServeEngine, WarmCacheSweepBitIdenticalToColdOneShot) {
  auto& cache = queueing::SolverCache::global();
  par::set_global_thread_count(1);
  Engine engine;
  const auto rtt = parse_request(
      R"({"op":"rtt","scenario":{"k":9,"tick":60,"ps":100},"gamers":300})");
  const auto sweep = parse_request(
      R"({"op":"sweep","scenario":{"k":9,"tick":60,"ps":100},"step":0.1})");
  ASSERT_TRUE(rtt.ok) << rtt.error;
  ASSERT_TRUE(sweep.ok) << sweep.error;

  cache.clear();
  (void)engine.execute_one(rtt.request);
  const std::string warm = engine.execute_one(sweep.request);
  cache.clear();
  const std::string cold = engine.execute_one(sweep.request);
  EXPECT_EQ(warm, cold);
}

TEST(ServeEngine, PrecisionControlsDigits) {
  Engine full{serve::EngineOptions{17}};
  Engine coarse{serve::EngineOptions{6}};
  const auto p = parse_request(R"({"op":"rtt","gamers":77})");
  ASSERT_TRUE(p.ok);
  const auto a = full.execute_one(p.request);
  const auto b = coarse.execute_one(p.request);
  EXPECT_GT(a.size(), b.size());
  // Both parse, and agree to 6 significant digits on the quantile.
  const auto va = obs::json::parse(a);
  const auto vb = obs::json::parse(b);
  const double qa = va.find("result")->number_or("rtt_quantile_ms", -1.0);
  const double qb = vb.find("result")->number_or("rtt_quantile_ms", -2.0);
  EXPECT_NEAR(qa, qb, 1e-5 * qa);
}

}  // namespace
}  // namespace fpsq
