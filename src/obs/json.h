#ifndef SGNN_OBS_JSON_H_
#define SGNN_OBS_JSON_H_

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>

namespace sgnn::obs {

/// The one number writer of `sgnn::obs` and `sgnn::net`: every number those
/// modules turn into text goes through `AppendNumber`. It writes with
/// `std::to_chars`, which reads no locale, so a `setlocale` call in an
/// embedding program changes no byte of an export or an HTTP answer.

/// Upper bound on the bytes one `AppendNumber` call appends: a `%.9g`
/// double is at most 16 ("-1.23456789e-308"), a 64-bit integer 20.
inline constexpr size_t kMaxNumberBytes = 24;

/// Appends the bytes `printf("%.9g", v)` writes in the "C" locale: nine
/// significant digits, trailing zeros dropped, exponent form below 1e-4
/// and from 1e9, and "inf", "-inf", "nan" or "-nan" otherwise. A float
/// argument promotes to double, as it does through printf's varargs.
inline void AppendNumber(std::string* out, double v) {
  char buf[kMaxNumberBytes];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v,
                                    std::chars_format::general, 9);
  out->append(buf, result.ptr);
}

/// Appends the decimal digits of `v`, with a '-' when negative: the bytes
/// `std::to_string(v)` makes.
template <std::integral T>
  requires(!std::same_as<T, bool>)
inline void AppendNumber(std::string* out, T v) {
  char buf[kMaxNumberBytes];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

/// `AppendNumber` into a fresh string, for messages.
template <typename T>
std::string NumberText(T v) {
  std::string out;
  AppendNumber(&out, v);
  return out;
}

/// Upper bound on the bytes `AppendJsonEscaped` appends per byte of its
/// input (a \u00XX escape).
inline constexpr size_t kMaxEscapedBytes = 6;

/// Appends `s` escaped for a JSON string literal: quote, backslash, \n, \r
/// and \t by name, every other control character as \u00XX. The one JSON
/// escaper: trace export and the HTTP bodies of `sgnn::net` both use it.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          *out += "\\u00";
          out->push_back(kHex[u >> 4]);
          out->push_back(kHex[u & 0xf]);
        } else {
          out->push_back(c);
        }
      }
    }
  }
}

}  // namespace sgnn::obs

#endif  // SGNN_OBS_JSON_H_
