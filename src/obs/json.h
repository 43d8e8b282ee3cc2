#ifndef SGNN_OBS_JSON_H_
#define SGNN_OBS_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace sgnn::obs {

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslash,
/// control characters). The one JSON escaper: trace export and the HTTP
/// bodies of `sgnn::net` both use it.
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace sgnn::obs

#endif  // SGNN_OBS_JSON_H_
