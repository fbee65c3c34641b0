#pragma once

// gridsub's one JSON module: the deterministic writer helpers and a strict
// parser for the subset of JSON gridsub's own writers emit — objects,
// arrays, strings, numbers, booleans, and null (the writer's spelling of a
// non-finite double). Checkpoints, stage files, campaign JSON, and the
// advisor recovery dump are machine formats written and read only by
// gridsub, so any deviation is treated as corruption and reported with
// byte offsets via json::Error. Each consumer turns that error into its
// own typed one at its parse entry points (exp: CheckpointError, serve:
// RecoveryError).

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gridsub::core::json {

/// Raised by parse() and the typed accessors on malformed input.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes `s` as a quoted JSON string.
inline void escape(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Shortest round-trip representation via std::to_chars: byte-identical
/// for equal doubles, locale-independent, and re-parses to the same value.
/// Non-finite values come out as to_chars spells them ("inf", "nan").
inline void shortest_double(std::ostream& os, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, static_cast<std::streamsize>(r.ptr - buf));
}

/// A JSON number in shortest round-trip form. JSON has no inf/nan, so a
/// non-finite value is written as null: consumers fail loudly, not subtly.
inline void number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  shortest_double(os, v);
}

/// One parsed JSON value (a small DOM; object keys keep file order).
struct Value {
  enum class Kind { kObject, kArray, kString, kNumber, kBool, kNull };
  Kind kind = Kind::kNull;
  std::vector<std::pair<std::string, Value>> object;
  std::vector<Value> array;
  std::string string;
  double number = 0.0;          // every number, parsed as double (NaN: null)
  std::uint64_t integer = 0;    // exact value when is_integer
  bool is_integer = false;
  bool boolean = false;         // value when kind == kBool
};

/// Parses exactly one value followed by nothing but whitespace (newlines
/// included: the advisor recovery dump is pretty-printed). `origin` names
/// the source in error messages. Throws Error.
[[nodiscard]] Value parse(std::string_view text, const std::string& origin);

// Typed accessors over the parsed DOM, each failing with a named key so
// corrupt files report what is wrong, not just where. All throw Error.

[[nodiscard]] const Value& get_key(const Value& obj, const std::string& key,
                                   const std::string& origin);
[[nodiscard]] const std::string& get_string(const Value& obj,
                                            const std::string& key,
                                            const std::string& origin);
[[nodiscard]] std::uint64_t get_uint(const Value& obj, const std::string& key,
                                     const std::string& origin);
/// A number, or NaN for null (the writer's spelling of non-finite).
[[nodiscard]] double get_number(const Value& obj, const std::string& key,
                                const std::string& origin);
[[nodiscard]] bool get_bool(const Value& obj, const std::string& key,
                            const std::string& origin);
[[nodiscard]] std::vector<std::string> get_string_array(
    const Value& obj, const std::string& key, const std::string& origin);

}  // namespace gridsub::core::json
