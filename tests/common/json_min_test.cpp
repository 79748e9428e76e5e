// json_min hostile-input regression: nesting past JsonParser::kMaxDepth is
// rejected with the parser's normal error (std::runtime_error) instead of
// overflowing the stack — 200k nested '[' used to segfault.  The file
// loaders built on the parser (campaign checkpoints) inherit the limit.
// Also pins the JsonWriter rules every emitter relies on: escaping that
// round-trips losslessly through the parser, the two double forms, the hex
// form and the three layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/checkpoint.hpp"
#include "common/json_min.hpp"
#include "common/json_write.hpp"

namespace adres::json {
namespace {

std::string nestedArrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

std::string nestedObjects(int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) s += "{\"k\":";
  s += "0";
  s += std::string(static_cast<std::size_t>(depth), '}');
  return s;
}

TEST(JsonParser, AcceptsNestingUpToTheLimit) {
  const JsonValue a = JsonParser(nestedArrays(JsonParser::kMaxDepth)).parse();
  int depth = 1;
  for (const JsonValue* v = &a; !v->array.empty(); v = &v->array.front())
    ++depth;
  EXPECT_EQ(depth, JsonParser::kMaxDepth);
  EXPECT_NO_THROW(JsonParser(nestedObjects(JsonParser::kMaxDepth)).parse());
}

TEST(JsonParser, RejectsNestingOneBeyondTheLimit) {
  EXPECT_THROW(JsonParser(nestedArrays(JsonParser::kMaxDepth + 1)).parse(),
               std::runtime_error);
  EXPECT_THROW(JsonParser(nestedObjects(JsonParser::kMaxDepth + 1)).parse(),
               std::runtime_error);
}

TEST(JsonParser, DeeplyNestedHostileInputThrowsInsteadOfCrashing) {
  // Unterminated, as an attacker would send it.
  EXPECT_THROW(JsonParser(std::string(200000, '[')).parse(), std::runtime_error);
  EXPECT_THROW(JsonParser(nestedArrays(200000)).parse(), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"k\":";
  EXPECT_THROW(JsonParser(objects).parse(), std::runtime_error);
  // Mixed array/object nesting counts every level.
  std::string mixed;
  for (int i = 0; i < 200000; ++i) mixed += i % 2 ? "{\"k\":" : "[";
  EXPECT_THROW(JsonParser(mixed).parse(), std::runtime_error);
}

TEST(JsonParser, ErrorNamesTheOffsetAndTheLimit) {
  try {
    JsonParser(nestedArrays(1000)).parse();
    FAIL() << "expected a nesting error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offset 256"), std::string::npos) << what;
    EXPECT_NE(what.find("nesting deeper than 256"), std::string::npos) << what;
  }
}

TEST(JsonParser, CheckpointLoaderRejectsDeepNesting) {
  std::istringstream is("{\"schema\":" + nestedArrays(200000) + "}");
  EXPECT_ANY_THROW(campaign::loadCheckpoint(is, campaign::SweepSpec{}));
}

TEST(JsonParser, EscapedStringsRoundTrip) {
  const std::string raw =
      std::string("q\"b\\n\nt\tc") + '\x01' + "\x1f|\xc3\xa9";
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject(JsonWriter::kInline).field(raw, raw).end();
  const std::string escaped = "\"q\\\"b\\\\n\\nt\\tc\\u0001\\u001f|\xc3\xa9\"";
  EXPECT_EQ(os.str(), "{" + escaped + ": " + escaped + "}\n");
  const JsonValue v = JsonParser(os.str()).parse();
  ASSERT_TRUE(v.hasKey(raw));
  EXPECT_EQ(v.at(raw).str, raw);
}

TEST(JsonWriter, NumberAndHexForms) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginArray(JsonWriter::kCompact)
      .value(0.1)
      .value(JsonWriter::Exact{0.1})
      .value(1.0 / 3.0)
      .value(std::numeric_limits<double>::infinity())
      .value(std::nan(""))
      .value(static_cast<u8>(200))
      .value(static_cast<i16>(-32768))
      .value(~0ull)
      .value(JsonWriter::Hex{0xabc})
      .value(true)
      .value(nullptr)
      .end();
  EXPECT_EQ(os.str(),
            "[0.1,0.10000000000000001,0.3333333333,0,0,200,-32768,"
            "18446744073709551615,\"0000000000000abc\",true,null]\n");
  EXPECT_EQ(hex64(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(telemetryNumber(1e300 * 1e300), "0");
}

TEST(JsonWriter, LayoutsLineBreaksAndEmbeddedDocuments) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject(JsonWriter::kInline)
      .lineBreak()
      .field("a", 1)
      .field("b", 2)
      .lineBreak()
      .key("rows")
      .beginArray();
  w.beginObject(JsonWriter::kInline)
      .field("x", 1)
      .lineBreak()
      .field("y", 2)
      .end();
  w.beginArray(JsonWriter::kCompact).value(1).value(2).end();
  w.end()
      .key("empty")
      .beginArray()
      .end()
      .key("doc")
      .embed([](JsonWriter& doc) {
        doc.beginObject().field("k", "v").end();
      })
      .key("trace")
      .beginArray(JsonWriter::kCompact)
      .lineBreak()
      .beginObject(JsonWriter::kCompact)
      .field("n", 1)
      .end()
      .lineBreak()
      .end()
      .lineBreak()
      .end();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"a\": 1, \"b\": 2,\n"
            "  \"rows\": [\n"
            "    {\"x\": 1,\n"
            "     \"y\": 2},\n"
            "    [1,2]\n"
            "  ], \"empty\": [\n"
            "  ], \"doc\": {\n"
            "  \"k\": \"v\"\n"
            "}, \"trace\": [\n"
            "{\"n\":1}\n"
            "]\n"
            "}\n");
  EXPECT_NO_THROW(JsonParser(os.str()).parse());
}

}  // namespace
}  // namespace adres::json
