// util/json.h tests: hardened string escaping (control bytes, invalid
// UTF-8), writer round-trip precision, and the strict RFC 8259 parser.

#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

namespace hops {
namespace {

std::string Escaped(std::string_view raw) {
  std::string out;
  AppendJsonEscaped(&out, raw);
  return out;
}

TEST(JsonEscapeTest, PassesPlainAsciiThrough) {
  EXPECT_EQ(Escaped("orders.customer_id"), "orders.customer_id");
}

TEST(JsonEscapeTest, EscapesMandatoryCharacters) {
  EXPECT_EQ(Escaped("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(Escaped("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(Escaped(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // NUL must not truncate anything.
  EXPECT_EQ(Escaped(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscapeTest, ValidUtf8PassesThrough) {
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x92\xa1";
  EXPECT_EQ(Escaped(utf8), utf8);
}

TEST(JsonEscapeTest, InvalidUtf8BecomesReplacementCharacter) {
  const std::string replacement = "\\ufffd";  // escaped U+FFFD
  // 0x80-0xBF alone are stray continuations; 0xFF is never valid.
  EXPECT_EQ(Escaped("\x80"), replacement);
  EXPECT_EQ(Escaped("\xff"), replacement);
  // Truncated 3-byte sequence: one replacement per bad byte.
  EXPECT_EQ(Escaped("\xe2\x82"), replacement + replacement);
  // Overlong encoding of '/' (0xC0 0xAF) must not decode.
  EXPECT_EQ(Escaped("\xc0\xaf"), replacement + replacement);
  // CESU-8 surrogate half (0xED 0xA0 0x80) is not scalar-value UTF-8.
  EXPECT_EQ(Escaped("\xed\xa0\x80"), replacement + replacement + replacement);
  // A valid character after garbage still passes through.
  EXPECT_EQ(Escaped("\xffok"), replacement + "ok");
}

TEST(JsonWriterTest, WritesNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("x");
  w.Key("values");
  w.BeginArray();
  w.Int(1);
  w.Int(-2);
  w.EndArray();
  w.Key("ok");
  w.Bool(true);
  w.EndObject();
  // Parseable by our own parser and structurally faithful.
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->AsString(), "x");
  EXPECT_EQ(parsed->Find("values")->AsArray().size(), 2u);
  EXPECT_EQ(parsed->Find("values")->AsArray()[1].AsInt64(), -2);
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
}

TEST(JsonWriterTest, DoublesRoundTripBitIdentically) {
  const double values[] = {0.1, 1.0 / 3.0, 1234.5678901234567, 1e-300,
                           123456789.123456789};
  for (double v : values) {
    JsonWriter w;
    w.Double(v);
    const double back = std::strtod(w.str().c_str(), nullptr);
    EXPECT_EQ(back, v) << w.str();  // bit-identical, not approximately
  }
}

TEST(JsonWriterTest, NonFiniteDoublesRenderAsNull) {
  JsonWriter w;
  w.Double(std::nan(""));
  EXPECT_EQ(w.str(), "null");
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("true")->AsBool(), true);
  EXPECT_EQ(ParseJson("-42")->AsInt64(), -42);
  EXPECT_TRUE(ParseJson("-42")->is_integer());
  EXPECT_FALSE(ParseJson("42.5")->is_integer());
  EXPECT_DOUBLE_EQ(ParseJson("42.5")->AsDouble(), 42.5);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairs) {
  Result<JsonValue> v = ParseJson("\"a\\n\\t\\\"\\\\\\u0041\\ud83d\\udca1\"");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsString(), "a\n\t\"\\A\xf0\x9f\x92\xa1");
}

TEST(JsonParseTest, ObjectPreservesOrderAndFinds) {
  Result<JsonValue> v = ParseJson("{\"b\": 1, \"a\": {\"c\": [true]}}");
  ASSERT_TRUE(v.ok());
  ASSERT_NE(v->Find("a"), nullptr);
  EXPECT_EQ(v->AsObject()[0].first, "b");
  EXPECT_TRUE(v->Find("a")->Find("c")->AsArray()[0].AsBool());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, TypedAccessorsNameTheKey) {
  Result<JsonValue> v = ParseJson("{\"n\": 7, \"s\": \"x\"}");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetInt("n").ValueOrDie(), 7);
  EXPECT_EQ(v->GetString("s").ValueOrDie(), "x");
  const Status missing = v->GetNumber("absent").status();
  EXPECT_TRUE(missing.IsInvalidArgument());
  EXPECT_NE(missing.message().find("absent"), std::string::npos);
  EXPECT_FALSE(v->GetInt("s").ok());  // wrong type
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",            "{",           "[1,]",         "{\"a\":}",
      "{\"a\" 1}",   "tru",         "01",           "1.",
      "\"unterminated", "\"bad\\q\"", "\"\\ud83d\"",  // lone surrogate
      "{} trailing", "[1 2]",       "nul",          "+1",
  };
  for (const char* wire : bad) {
    Result<JsonValue> v = ParseJson(wire);
    EXPECT_FALSE(v.ok()) << "accepted: " << wire;
    if (!v.ok()) {
      EXPECT_NE(v.status().message().find("byte"), std::string::npos)
          << v.status().ToString();
    }
  }
}

TEST(JsonParseTest, RefusesNumbersThatOverflowADouble) {
  for (const char* wire : {"1e400", "-1e400", "[1, 2e999]"}) {
    Result<JsonValue> v = ParseJson(wire);
    EXPECT_TRUE(v.status().IsInvalidArgument()) << "accepted: " << wire;
  }
  EXPECT_EQ(ParseJson("1e400").status().message(),
            "JSON parse error at byte 5: number overflows a double");
  // The largest finite double still parses to itself, and an underflow to
  // zero is not an overflow.
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(ParseJson("1.7976931348623157e308")->AsDouble(), max);
  EXPECT_EQ(ParseJson("-1.7976931348623157e308")->AsDouble(), -max);
  EXPECT_EQ(ParseJson("1e-400")->AsDouble(), 0.0);
}

TEST(JsonParseTest, RejectsRawControlCharactersInStrings) {
  EXPECT_FALSE(ParseJson(std::string("\"a\nb\"")).ok());
}

TEST(JsonParseTest, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  JsonParseOptions options;
  options.max_depth = 32;
  EXPECT_FALSE(ParseJson(deep, options).ok());
  // A document within the limit parses.
  EXPECT_TRUE(ParseJson("[[[[1]]]]", options).ok());
}

TEST(JsonParseTest, RoundTripsThroughWriter) {
  // Writer output with hostile strings parses back to the same content.
  JsonWriter w;
  w.BeginObject();
  w.Key(std::string("k\x01\xff", 3));
  w.String("v\"\\\n");
  w.EndObject();
  Result<JsonValue> parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsObject()[0].second.AsString(), "v\"\\\n");
}

}  // namespace
}  // namespace hops
