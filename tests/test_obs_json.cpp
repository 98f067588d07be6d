// Tests for fpsq::obs::json — the escape helper shared by every JSON
// writer in the repo and the recursive-descent parser behind
// `fpsq benchdiff` and the manifest/timeline round-trip tests.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using fpsq::obs::json::escape;
using fpsq::obs::json::number_to;
using fpsq::obs::json::parse;
using fpsq::obs::json::Value;

TEST(ObsJson, EscapeControlAndQuoteCharacters) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("a\\b"), "a\\\\b");
  EXPECT_EQ(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ObsJson, NumberToSerializesNonFiniteAsNull) {
  std::string out;
  number_to(out, 1.5);
  EXPECT_EQ(out, "1.5");
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    for (int precision = 1; precision <= 17; ++precision) {
      out.clear();
      number_to(out, v, precision);
      EXPECT_EQ(out, "null") << "precision " << precision;
    }
  }
}

// number_to is std::to_chars in the general format; its contract is the
// bytes printf's "%.{p}g" prints, which every golden file was made with.
// snprintf stays here as the oracle.
TEST(ObsJson, NumberToMatchesPrintfAtEveryPrecision) {
  std::vector<double> values = {0.0,     -0.0,    DBL_MAX, -DBL_MAX,
                                DBL_MIN, -DBL_MIN, DBL_TRUE_MIN,
                                -DBL_TRUE_MIN, DBL_MIN / 3.0, DBL_EPSILON,
                                1.0,     -1.0,    0.1,     1e-5,
                                1e-4,    1e15,    1e16,    1e17,
                                123456789012345678.0, 9.5, 0.5,
                                99999.5, 999999.5, 1e21, 5e-324};
  std::mt19937_64 rng(20061022);
  for (int i = 0; i < 20000; ++i) {  // raw bit patterns, all exponents
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  for (int i = 0; i < 5000; ++i) {  // magnitudes responses print
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
  }
  for (int k = -2000; k <= 2000; ++k) {  // short decimals, ties
    values.push_back(k / 1000.0);
    values.push_back(k * 0.05);
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    for (int precision = 1; precision <= 17; ++precision) {
      char expected[64];
      std::snprintf(expected, sizeof expected, "%.*g", precision, v);
      std::string out;
      number_to(out, v, precision);
      if (out != expected && ++mismatches <= 10) {
        ADD_FAILURE() << "precision " << precision << ": number_to wrote "
                      << out << ", printf " << expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() * 17 << " numbers";
  // The default precision is 17, which round-trips; out-of-range
  // precisions are clamped to 1..17.
  std::string out;
  number_to(out, 0.1);
  EXPECT_EQ(out, "0.10000000000000001");
  out.clear();
  number_to(out, 2.0 / 3.0, 0);
  EXPECT_EQ(out, "0.7");
  out.clear();
  number_to(out, 2.0 / 3.0, 40);
  EXPECT_EQ(out, "0.66666666666666663");
}

TEST(ObsJson, ParseScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").boolean);
  EXPECT_FALSE(parse("false").boolean);
  EXPECT_DOUBLE_EQ(parse("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse("-1.25e2").number, -125.0);
  EXPECT_EQ(parse("\"hi\"").string, "hi");
}

TEST(ObsJson, ParseStringEscapes) {
  EXPECT_EQ(parse("\"a\\\"b\\\\c\\n\"").string, "a\"b\\c\n");
  // \u escapes decode to UTF-8.
  EXPECT_EQ(parse("\"\\u0041\"").string, "A");
  EXPECT_EQ(parse("\"\\u00e9\"").string, "\xc3\xa9");
}

TEST(ObsJson, ParseNestedDocument) {
  const Value v = parse(
      R"({"name":"b1","wall_s":0.5,"metrics":{"err":1e-3,"bad":null},)"
      R"("tags":[1,2,3]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.string_or("name", ""), "b1");
  EXPECT_DOUBLE_EQ(v.number_or("wall_s", -1.0), 0.5);
  const Value* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->number_or("err", 0.0), 1e-3);
  ASSERT_NE(metrics->find("bad"), nullptr);
  EXPECT_TRUE(metrics->find("bad")->is_null());
  const Value* tags = v.find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_EQ(tags->array.size(), 3u);
  EXPECT_DOUBLE_EQ(tags->array[2].number, 3.0);
}

TEST(ObsJson, ObjectMemberOrderPreserved) {
  const Value v = parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(v.object.size(), 3u);
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  EXPECT_EQ(v.object[2].first, "m");
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse("tru"), std::runtime_error);
  EXPECT_THROW(parse("1 trailing"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
}

TEST(ObsJson, EscapeParseRoundTrip) {
  const std::string nasty = "q\"b\\s\ncr\rtab\tctl\x02 end";
  std::string doc = "\"";
  doc += escape(nasty);
  doc += '"';
  EXPECT_EQ(parse(doc).string, nasty);
}

}  // namespace
