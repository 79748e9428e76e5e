// The one JSON writer behind every document the tree emits.  JsonWriter
// streams into a std::ostream (no DOM, no string per value) and alone
// decides the bytes: commas; quoting and lossless escaping of keys and
// strings; integers and bools; 64-bit ids as 16 lower-case hex digits
// (Hex); and two double forms, Exact (%.17g, round-trips through
// std::stod; persisted state) and telemetry (%.10g, non-finite as 0; every
// plain double).  Layout is per container: kLines puts each member on its
// own line at 2 spaces per depth, kInline joins members with ", " and
// ": ", kCompact with "," and ":".  lineBreak() starts the next member (or
// the closing bracket) of an inline or compact container on a new line,
// aligned with the first member (kLines indent when the break comes
// first; compact lines are not indented).  Closing the outermost container
// ends the document with '\n'.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"
#include "common/types.hpp"

namespace adres {

namespace json_detail {
inline constexpr char kHexDigits[] = "0123456789abcdef";
inline void hexDigits(char* out, u64 v) {  // writes out[0..15]
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kHexDigits[v & 0xF];
}
inline std::string_view telemetry(char (&buf)[32], double v) {
  const int n = std::snprintf(buf, 32, "%.10g", std::isfinite(v) ? v : 0.0);
  return {buf, static_cast<std::size_t>(n)};
}
}  // namespace json_detail

/// `v` as 16 lower-case hex digits (trace ids, spec hashes, cell keys).
inline std::string hex64(u64 v) {
  std::string out(16, '0');
  json_detail::hexDigits(out.data(), v);
  return out;
}

/// hex64 read back; throws SimError unless `s` is 16 hex digits.
inline u64 parseHex64(const std::string& s) {
  u64 v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, 16);
  ADRES_CHECK(s.size() == 16 && ec == std::errc() && ptr == end,
              "'" << s << "' is not 16 hex digits");
  return v;
}

/// The telemetry double form for text outside a JSON document (Prometheus
/// samples and labels, SLO spec strings).
inline std::string telemetryNumber(double v) {
  char buf[32];
  return std::string(json_detail::telemetry(buf, v));
}

class JsonWriter {
 public:
  enum Layout { kLines, kInline, kCompact };
  struct Exact { double v; };  ///< a double in the exact form
  struct Hex { u64 v; };       ///< a u64 as a 16-hex-digit string

  explicit JsonWriter(std::ostream& os) : os_(os) {}
  JsonWriter(const JsonWriter&) = delete;

  JsonWriter& beginObject(Layout l = kLines) { return open('{', l); }
  JsonWriter& beginArray(Layout l = kLines) { return open('[', l); }
  JsonWriter& end() {
    const Frame& f = top();
    --depth_;
    if (f.layout == kLines || f.breakPending) newline(2 * depth_, f);
    put(f.close);
    if (depth_ == 0 && !embedded_) put('\n');
    return *this;
  }
  JsonWriter& lineBreak() { top().breakPending = true; return *this; }
  JsonWriter& key(std::string_view k) {
    value(k).put(top().layout == kCompact ? ":" : ": ");
    keyDone_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) { beginValue(); return string(s); }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return scalar(b ? "true" : "false"); }
  JsonWriter& value(std::nullptr_t) { return scalar("null"); }
  template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return scalar({buf, static_cast<std::size_t>(end - buf)});
  }
  JsonWriter& value(double v) {
    char buf[32];
    return scalar(json_detail::telemetry(buf, v));
  }
  JsonWriter& value(Exact e) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", e.v);
    return scalar({buf, static_cast<std::size_t>(n)});
  }
  JsonWriter& value(Hex h) {
    char buf[18] = {'"'};
    json_detail::hexDigits(buf + 1, h.v);
    buf[17] = '"';
    return scalar({buf, sizeof buf});
  }

  /// key(k).value(v): a new field is one call.
  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Writes the document `write(sub)` produces as the next value, laid out
  /// from column 0 as if it stood alone, without its final newline.
  template <class Fn>
  JsonWriter& embed(Fn&& write) {
    beginValue();
    JsonWriter sub(os_);
    sub.col_ = col_;
    sub.embedded_ = true;
    write(sub);
    col_ = sub.col_;
    return *this;
  }

 private:
  struct Frame {
    Layout layout;
    char close;
    int members, memberCol;  ///< member count, column of the first member
    bool breakPending;
  };

  Frame& top() {
    ADRES_CHECK(depth_ > 0, "JsonWriter: no open container");
    return frames_[depth_ - 1];
  }
  JsonWriter& open(char bracket, Layout layout) {
    beginValue();
    ADRES_CHECK(depth_ < static_cast<int>(frames_.size()),
                "JsonWriter nesting too deep");
    frames_[depth_++] = {layout, bracket == '{' ? '}' : ']', 0, 0, false};
    return put({&bracket, 1});
  }
  JsonWriter& scalar(std::string_view t) { beginValue(); return put(t); }
  /// Separator and indentation before the innermost container's next value
  /// (none right after a key).
  void beginValue() {
    if (keyDone_ || depth_ == 0) {
      keyDone_ = false;
      return;
    }
    Frame& f = top();
    if (f.members > 0) put(',');
    if (f.layout == kLines || f.breakPending) {
      newline(f.members > 0 ? f.memberCol : 2 * depth_, f);
    } else if (f.members > 0 && f.layout == kInline) {
      put(' ');
    }
    if (f.members++ == 0) f.memberCol = col_;
    f.breakPending = false;
  }
  /// `s` quoted: `"` and `\` backslash-escaped, newline and tab as \n and
  /// \t, other control bytes as \u00XX; all other bytes (UTF-8 included)
  /// pass through.
  JsonWriter& string(std::string_view s) {
    put('"');
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto u = static_cast<unsigned char>(s[i]);
      if (u >= 0x20 && u != '"' && u != '\\') continue;
      put(s.substr(run, i - run));
      run = i + 1;
      const char* hex = json_detail::kHexDigits;
      const char esc[6] = {'\\', 'u', '0', '0', hex[u >> 4], hex[u & 0xF]};
      if (u >= 0x20 || u == '\n' || u == '\t') {
        put('\\');
        put(u == '\n' ? 'n' : u == '\t' ? 't' : s[i]);
      } else {
        put({esc, 6});
      }
    }
    put(s.substr(run));
    return put("\"");
  }
  /// A new line indented `indent` columns (none in a compact container).
  void newline(int indent, const Frame& f) {
    put('\n');
    col_ = 0;
    constexpr std::string_view kSpaces = "                ";
    for (; f.layout != kCompact && indent > 0; indent -= 16)
      put(kSpaces.substr(0, indent < 16 ? indent : 16));
  }
  JsonWriter& put(std::string_view s) {
    os_.write(s.data(), static_cast<std::streamsize>(s.size()));
    col_ += static_cast<int>(s.size());
    return *this;
  }
  void put(char c) { put({&c, 1}); }

  std::ostream& os_;
  int col_ = 0;  ///< bytes written since the last newline
  bool embedded_ = false;
  bool keyDone_ = false;
  int depth_ = 0;
  std::array<Frame, 16> frames_{};
};

/// Writes the document `write(os)` produces to `path` atomically (into
/// path.tmp, then renamed over `path`); throws SimError on failure.
template <class Fn>
void writeJsonFile(const std::string& path, Fn&& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    ADRES_CHECK(os.good(), "cannot open '" << tmp << '\'');
    write(os);
    ADRES_CHECK(os.good(), "write to '" << tmp << "' failed");
  }
  ADRES_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot rename '" << tmp << "' to '" << path << '\'');
}

}  // namespace adres
