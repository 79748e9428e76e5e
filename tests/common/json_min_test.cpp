// json_min hostile-input regression: nesting past JsonParser::kMaxDepth is
// rejected with the parser's normal error (std::runtime_error) instead of
// overflowing the stack — 200k nested '[' used to segfault.  The file
// loaders built on the parser (campaign checkpoints) inherit the limit.
// Also pins that the shared writer-side jsonEscape round-trips losslessly
// through the parser.
#include <gtest/gtest.h>

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
  const std::string doc = "{\"s\": \"" + jsonEscape(raw) + "\"}";
  EXPECT_EQ(jsonEscape(raw),
            "q\\\"b\\\\n\\nt\\tc\\u0001\\u001f|\xc3\xa9");
  EXPECT_EQ(JsonParser(doc).parse().at("s").str, raw);
}

}  // namespace
}  // namespace adres::json
