// util/json.hpp parser: the exact grammar the report emitter writes —
// object member order, the emitter's escape set, 17-digit number
// round-trips — plus strictness (trailing garbage, bad escapes, typed
// accessor errors with useful messages), and json_escape round-tripping
// through the parser.

#include <gtest/gtest.h>

#include <string>

#include "coopcr.hpp"

namespace coopcr {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  const JsonValue doc = JsonValue::parse(
      "{\"b\":true,\"f\":false,\"z\":null,\"n\":-2.5e2,\"s\":\"hi\","
      "\"a\":[1,2,3],\"o\":{\"k\":7}}");
  EXPECT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_FALSE(doc.at("f").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  EXPECT_EQ(doc.at("n").as_double(), -250.0);
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  ASSERT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_EQ(doc.at("a").as_array()[2].as_int(), 3);
  EXPECT_EQ(doc.at("o").at("k").as_int(), 7);
  EXPECT_TRUE(doc.has("o"));
  EXPECT_FALSE(doc.has("missing"));
}

TEST(Json, PreservesObjectMemberOrder) {
  const JsonValue doc = JsonValue::parse("{\"z\":1,\"a\":2,\"m\":3}");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, RoundTripsSeventeenDigitDoubles) {
  const double value = 8998826629.0417175;
  const JsonValue doc =
      JsonValue::parse("{\"v\":" + format_number(value) + "}");
  EXPECT_EQ(doc.at("v").as_double(), value);
}

TEST(Json, DecodesTheEmitterEscapeSet) {
  const JsonValue doc = JsonValue::parse(
      "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0041\\u0009\"}");
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\nd\teA\t");
}

TEST(Json, EscapeRoundTripsEveryControlByte) {
  std::string original = "a\"b\\c";
  for (int c = 0x00; c < 0x20; ++c) original += static_cast<char>(c);
  original += "z";
  const std::string escaped = json_escape(original);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);  // lowercase hex
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_NE(escaped.find("\\n"), std::string::npos);
  const JsonValue parsed = JsonValue::parse("\"" + escaped + "\"");
  EXPECT_EQ(parsed.as_string(), original);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":}"), Error);
  EXPECT_THROW(JsonValue::parse("[1,2"), Error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(JsonValue::parse("nulx"), Error);
  EXPECT_THROW(JsonValue::parse("\"bad \\q escape\""), Error);
  EXPECT_THROW(JsonValue::parse("\"\\u00fe\""), Error);  // non-ASCII
  EXPECT_THROW(JsonValue::parse("1.2.3"), Error);
}

TEST(Json, ErrorsCarryTheByteOffset) {
  try {
    JsonValue::parse("{\"a\":1,\"b\":!}");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(Json, TypedAccessorsThrowWithKindNames) {
  const JsonValue doc = JsonValue::parse("{\"n\":1.5,\"s\":\"x\"}");
  EXPECT_THROW(doc.at("n").as_string(), Error);
  EXPECT_THROW(doc.at("s").as_double(), Error);
  EXPECT_THROW(doc.at("n").as_int(), Error);  // not an exact integer
  EXPECT_THROW(doc.at("missing"), Error);
  EXPECT_THROW(doc.at("n").at("nested"), Error);  // not an object
}

}  // namespace
}  // namespace coopcr
