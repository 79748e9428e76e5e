// JSON string escaping shared by every JSON emitter in the tree (trace
// exports, counters, metrics, profiles, spans, postmortem bundles, build
// info, SLO state).  Lossless: json::JsonParser reads every escaped string
// back byte-for-byte.
#pragma once

#include <string>
#include <string_view>

namespace adres {

/// `s` escaped for the inside of a JSON string literal: `"` and `\` are
/// backslash-escaped, newline and tab use their short forms, and every
/// other control byte (< 0x20) becomes \u00XX.  All other bytes, UTF-8
/// included, pass through unchanged.
inline std::string jsonEscape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace adres
