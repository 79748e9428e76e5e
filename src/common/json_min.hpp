// Minimal self-contained JSON parser — no external dependency.  Used to
// validate the repo's JSON exporters in tests (Chrome trace,
// adres.counters.v1, adres.metrics.v1, bench dumps) and to load
// adres.campaign.v1 checkpoints for resumable campaigns.  Not a
// general-purpose parser (\uXXXX escapes decode exactly for ASCII code
// points and collapse to '?' otherwise).  Arrays and objects nest at most
// JsonParser::kMaxDepth deep:
// deeper input is rejected with the parser's normal error instead of
// recursing until the stack overflows.
#pragma once

#include <cctype>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace adres::json {

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool hasKey(const std::string& k) const { return object.count(k) != 0; }
  const JsonValue& at(const std::string& k) const {
    auto it = object.find(k);
    if (it == object.end()) throw std::runtime_error("missing key " + k);
    return it->second;
  }
};

class JsonParser {
 public:
  /// Deepest array/object nesting accepted (far beyond any file the repo
  /// writes; bounds the parser's recursion on hostile input).
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + why);
  }
  void skipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  char get() {
    char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  /// Counts one level of array/object nesting for its lifetime.
  struct Nest {
    explicit Nest(JsonParser& p) : p_(p) {
      if (p_.depth_ == kMaxDepth)
        p_.fail("nesting deeper than " + std::to_string(kMaxDepth));
      ++p_.depth_;
    }
    ~Nest() { --p_.depth_; }
    JsonParser& p_;
  };

  JsonValue parseValue() {
    skipWs();
    switch (peek()) {
      case '{': { Nest n(*this); return parseObject(); }
      case '[': { Nest n(*this); return parseArray(); }
      case '"': return parseString();
      case 't': case 'f': return parseBool();
      case 'n': return parseNull();
      default: return parseNumber();
    }
  }
  JsonValue parseObject() {
    JsonValue v;
    v.type = JsonValue::kObject;
    expect('{');
    skipWs();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skipWs();
      JsonValue key = parseString();
      skipWs();
      expect(':');
      v.object[key.str] = parseValue();
      skipWs();
      char c = get();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return v;
  }
  JsonValue parseArray() {
    JsonValue v;
    v.type = JsonValue::kArray;
    expect('[');
    skipWs();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(parseValue());
      skipWs();
      char c = get();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return v;
  }
  JsonValue parseString() {
    JsonValue v;
    v.type = JsonValue::kString;
    expect('"');
    while (true) {
      char c = get();
      if (c == '"') break;
      if (c == '\\') {
        char e = get();
        switch (e) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'b': v.str += '\b'; break;
          case 'f': v.str += '\f'; break;
          case 'n': v.str += '\n'; break;
          case 'r': v.str += '\r'; break;
          case 't': v.str += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const auto h = static_cast<unsigned char>(get());
              if (!std::isxdigit(h)) fail("bad \\u escape");
              cp = cp * 16 + static_cast<unsigned>(
                                 std::isdigit(h) ? h - '0'
                                                 : std::tolower(h) - 'a' + 10);
            }
            // JsonWriter only emits \u00XX for control bytes; wider
            // code points are irrelevant here and collapse to '?'.
            v.str += cp < 0x80 ? static_cast<char>(cp) : '?';
            break;
          }
          default: fail("bad escape");
        }
      } else {
        v.str += c;
      }
    }
    return v;
  }
  JsonValue parseBool() {
    JsonValue v;
    v.type = JsonValue::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }
  JsonValue parseNull() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return {};
  }
  JsonValue parseNumber() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("bad number");
    JsonValue v;
    v.type = JsonValue::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  std::string s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects around the current position
};

}  // namespace adres::json
