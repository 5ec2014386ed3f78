#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arch/presets.hpp"
#include "core/report_json.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace rsp {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(util::Json(true).dump(), "true");
  EXPECT_EQ(util::Json(42).dump(), "42");
  EXPECT_EQ(util::Json(2.5).dump(), "2.5");
  EXPECT_EQ(util::Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(util::Json().dump(), "null");
}

TEST(Json, Escaping) {
  EXPECT_EQ(util::Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(util::Json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ObjectsPreserveInsertionOrderAndOverwrite) {
  util::Json j = util::Json::object();
  j.set("b", 1).set("a", 2).set("b", 3);
  EXPECT_EQ(j.dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.keys(), (std::vector<std::string>{"b", "a"}));
  EXPECT_THROW(util::Json::array().keys(), rsp::InvalidArgumentError);
}

TEST(Json, MergeMovesFieldsWithSetSemantics) {
  util::Json envelope = util::Json::object();
  envelope.set("version", 2).set("id", "r1");
  util::Json body = util::Json::object();
  body.set("id", "overwritten").set("ok", true);
  envelope.merge(std::move(body));
  EXPECT_EQ(envelope.dump(),
            "{\"version\":2,\"id\":\"overwritten\",\"ok\":true}");
  EXPECT_THROW(util::Json::object().merge(util::Json::array()),
               rsp::InvalidArgumentError);
  EXPECT_THROW(util::Json::array().merge(util::Json::object()),
               rsp::InvalidArgumentError);
}

TEST(Json, ArraysAndNesting) {
  util::Json arr = util::Json::array();
  arr.push(1).push("two");
  util::Json obj = util::Json::object();
  obj.set("list", std::move(arr));
  EXPECT_EQ(obj.dump(), "{\"list\":[1,\"two\"]}");
}

TEST(Json, PrettyPrinting) {
  util::Json j = util::Json::object();
  j.set("x", 1);
  EXPECT_EQ(j.dump(true), "{\n  \"x\": 1\n}");
}

TEST(Json, TypeErrors) {
  util::Json scalar(1);
  EXPECT_THROW(scalar.set("k", 1), InvalidArgumentError);
  EXPECT_THROW(scalar.push(1), InvalidArgumentError);
}

TEST(Json, LargeIntegersStayExact) {
  EXPECT_EQ(util::Json(std::int64_t{55739}).dump(), "55739");
  EXPECT_EQ(util::Json(std::int64_t{-123456789}).dump(), "-123456789");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(util::Json::parse("null").is_null());
  EXPECT_EQ(util::Json::parse("true").as_bool(), true);
  EXPECT_EQ(util::Json::parse("false").as_bool(), false);
  EXPECT_EQ(util::Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(util::Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(util::Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(util::Json::parse(" \n\t 7 ").as_number(), 7.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(util::Json::parse("\"a\\\"b\\\\c\\nd\"").as_string(), "a\"b\\c\nd");
  EXPECT_EQ(util::Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(util::Json::parse("\"\\u0001\"").as_string(),
            std::string(1, '\x01'));
}

TEST(JsonParse, SurrogatePairsDecodeToFourByteUtf8) {
  // U+1F600 (grinning face) arrives as the UTF-16 escape pair D83D DE00 and
  // must decode to the 4-byte UTF-8 sequence — an emoji in a request id is
  // a valid string, not a protocol error.
  EXPECT_EQ(util::Json::parse("\"\\uD83D\\uDE00\"").as_string(),
            "\xF0\x9F\x98\x80");
  // Lowest and highest astral code points: U+10000 and U+10FFFF.
  EXPECT_EQ(util::Json::parse("\"\\uD800\\uDC00\"").as_string(),
            "\xF0\x90\x80\x80");
  EXPECT_EQ(util::Json::parse("\"\\uDBFF\\uDFFF\"").as_string(),
            "\xF4\x8F\xBF\xBF");
  // Pairs compose with surrounding text and other escapes.
  EXPECT_EQ(util::Json::parse("\"a\\uD83D\\uDE00\\nb\"").as_string(),
            "a\xF0\x9F\x98\x80\nb");
}

TEST(JsonParse, LoneSurrogatesAreStillRejected) {
  // A lone half of a pair has no code point: reject, never emit WTF-8.
  EXPECT_THROW(util::Json::parse("\"\\uD800\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\uDFFF\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\uD83Dx\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\uD83D\\n\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\uD83D\\uD83D\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\uDE00\\uD83D\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\uD83D\""), InvalidArgumentError);
}

TEST(JsonParse, AstralStringsRoundTripThroughEscapeAndParse) {
  // escape() passes raw UTF-8 through untouched, so a decoded astral string
  // survives dump()+parse() byte-identically — in an id, in a key, nested.
  util::Json doc = util::Json::object();
  doc.set("id", "req-\xF0\x9F\x98\x80");
  doc.set("\xF0\x90\x80\x80", 1);
  const util::Json reparsed = util::Json::parse(doc.dump());
  EXPECT_EQ(reparsed.dump(), doc.dump());
  EXPECT_EQ(reparsed.at("id").as_string(), "req-\xF0\x9F\x98\x80");
  // And the escaped spelling parses to the same string as the raw bytes.
  EXPECT_EQ(
      util::Json::parse("{\"id\": \"req-\\uD83D\\uDE00\"}").at("id").dump(),
      util::Json("req-\xF0\x9F\x98\x80").dump());
}

TEST(JsonParse, Containers) {
  const util::Json j =
      util::Json::parse("{\"a\": [1, \"two\", {\"b\": true}], \"c\": null}");
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("missing"));
  const util::Json& arr = j.at("a");
  ASSERT_TRUE(arr.is_array());
  EXPECT_EQ(arr.at(0).as_number(), 1.0);
  EXPECT_EQ(arr.at(1).as_string(), "two");
  EXPECT_EQ(arr.at(2).at("b").as_bool(), true);
  EXPECT_TRUE(j.at("c").is_null());
  EXPECT_TRUE(util::Json::parse("{}").is_object());
  EXPECT_EQ(util::Json::parse("[]").size(), 0u);
}

TEST(JsonParse, DumpRoundTrip) {
  util::Json j = util::Json::object();
  j.set("kernel", "SAD").set("count", 3).set("exact", std::int64_t{55739});
  util::Json arr = util::Json::array();
  arr.push(1.5).push("x\ny").push(util::Json());
  j.set("items", std::move(arr));
  EXPECT_EQ(util::Json::parse(j.dump()).dump(), j.dump());
  EXPECT_EQ(util::Json::parse(j.dump(true)).dump(true), j.dump(true));
}

TEST(JsonParse, AccessorTypeErrors) {
  const util::Json j = util::Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.at("missing"), NotFoundError);
  EXPECT_THROW(j.at(std::size_t{0}), InvalidArgumentError);
  EXPECT_THROW(j.at("a").as_string(), InvalidArgumentError);
  EXPECT_THROW(j.at("a").as_bool(), InvalidArgumentError);
  EXPECT_THROW(util::Json("s").as_number(), InvalidArgumentError);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(util::Json::parse(""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("{"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("[1,]"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("{\"a\" 1}"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"unterminated"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("\"\\q\""), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("1 2"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("tru"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("--1"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("1.2.3"), InvalidArgumentError);
}

TEST(JsonParse, EnforcesStrictNumberGrammar) {
  EXPECT_THROW(util::Json::parse("+5"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse(".5"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("5."), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("017"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("[1e]"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("-"), InvalidArgumentError);
  EXPECT_EQ(util::Json::parse("0").as_number(), 0.0);
  EXPECT_EQ(util::Json::parse("-0.5e+2").as_number(), -50.0);
  EXPECT_EQ(util::Json::parse("1E3").as_number(), 1000.0);
}

TEST(JsonParse, NonFiniteNumbersRejectedAndRenderedAsNull) {
  EXPECT_THROW(util::Json::parse("1e999"), InvalidArgumentError);
  EXPECT_THROW(util::Json::parse("-1e999"), InvalidArgumentError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(util::Json(inf).dump(), "null");
  EXPECT_EQ(util::Json(std::nan("")).dump(), "null");
  // A document containing a non-finite metric still round-trips as JSON.
  util::Json j = util::Json::object();
  j.set("ratio", inf);
  EXPECT_TRUE(util::Json::parse(j.dump()).at("ratio").is_null());
}

TEST(JsonParse, DeepNestingFailsInsteadOfOverflowing) {
  const std::string deep(100000, '[');
  EXPECT_THROW(util::Json::parse(deep), InvalidArgumentError);
  // 500 levels is fine (limit is 1000).
  const std::string ok = std::string(500, '[') + std::string(500, ']');
  EXPECT_EQ(util::Json::parse(ok).size(), 1u);
}

TEST(ReportJson, EvaluationExport) {
  const core::RspEvaluator ev;
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::LoopPipeliner mapper(w.array);
  const auto rows = ev.evaluate_suite(
      mapper.map(w.kernel, w.hints, w.reduction), arch::standard_suite());
  const util::Json j = core::to_json(w.name, rows);
  const std::string s = j.dump();
  EXPECT_NE(s.find("\"kernel\":\"SAD\""), std::string::npos);
  EXPECT_NE(s.find("\"arch\":\"RSP#1\""), std::string::npos);
  EXPECT_NE(s.find("\"delay_reduction_percent\":35.6"), std::string::npos);
}

}  // namespace
}  // namespace rsp
