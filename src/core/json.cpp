#include "core/json.hpp"

#include <cctype>
#include <limits>

namespace gridsub::core::json {

namespace {

class Parser {
 public:
  Parser(std::string_view text, const std::string& origin)
      : text_(text), origin_(origin) {}

  [[nodiscard]] Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error(origin_ + ": " + what + " (byte " + std::to_string(pos_) +
                ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  [[nodiscard]] Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 'n': return null_value();
      case 't':
      case 'f': return bool_value();
      default: return number_value();
    }
  }

  [[nodiscard]] Value object() {
    expect('{');
    Value v;
    v.kind = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      Value key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key.string), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  [[nodiscard]] Value array() {
    expect('[');
    Value v;
    v.kind = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  [[nodiscard]] Value string_value() {
    expect('"');
    Value v;
    v.kind = Value::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.string.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': v.string.push_back('"'); break;
        case '\\': v.string.push_back('\\'); break;
        case 'n': v.string.push_back('\n'); break;
        case 't': v.string.push_back('\t'); break;
        case 'r': v.string.push_back('\r'); break;
        case 'u': {
          // The writer only emits \u00xx for control bytes.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          const auto* first = text_.data() + pos_;
          const auto r = std::from_chars(first, first + 4, code, 16);
          if (r.ptr != first + 4 || code > 0xFF) fail("bad \\u escape");
          pos_ += 4;
          v.string.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  [[nodiscard]] Value bool_value() {
    Value v;
    v.kind = Value::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      v.boolean = true;
      return v;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return v;
    }
    fail("bad literal");
  }

  [[nodiscard]] Value null_value() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    Value v;
    v.kind = Value::Kind::kNull;
    v.number = std::numeric_limits<double>::quiet_NaN();
    return v;
  }

  [[nodiscard]] Value number_value() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    Value v;
    v.kind = Value::Kind::kNumber;
    const auto rd = std::from_chars(first, last, v.number);
    if (rd.ec != std::errc() || rd.ptr != last) fail("malformed number");
    // Plain digit runs also carry the exact 64-bit value (flat indices,
    // seeds) that a double would truncate.
    const auto ri = std::from_chars(first, last, v.integer);
    v.is_integer = ri.ec == std::errc() && ri.ptr == last;
    return v;
  }

  std::string_view text_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

[[noreturn]] void key_error(const std::string& origin, const std::string& key,
                            const char* what) {
  throw Error(origin + ": key \"" + key + "\" " + what);
}

}  // namespace

Value parse(std::string_view text, const std::string& origin) {
  return Parser(text, origin).parse();
}

const Value& get_key(const Value& obj, const std::string& key,
                     const std::string& origin) {
  for (const auto& [k, v] : obj.object) {
    if (k == key) return v;
  }
  throw Error(origin + ": missing key \"" + key + "\"");
}

const std::string& get_string(const Value& obj, const std::string& key,
                              const std::string& origin) {
  const Value& v = get_key(obj, key, origin);
  if (v.kind != Value::Kind::kString) key_error(origin, key, "is not a string");
  return v.string;
}

std::uint64_t get_uint(const Value& obj, const std::string& key,
                       const std::string& origin) {
  const Value& v = get_key(obj, key, origin);
  if (v.kind != Value::Kind::kNumber || !v.is_integer) {
    key_error(origin, key, "is not an unsigned integer");
  }
  return v.integer;
}

double get_number(const Value& obj, const std::string& key,
                  const std::string& origin) {
  const Value& v = get_key(obj, key, origin);
  if (v.kind != Value::Kind::kNumber && v.kind != Value::Kind::kNull) {
    key_error(origin, key, "is not a number");
  }
  return v.number;
}

bool get_bool(const Value& obj, const std::string& key,
              const std::string& origin) {
  const Value& v = get_key(obj, key, origin);
  if (v.kind != Value::Kind::kBool) key_error(origin, key, "is not a boolean");
  return v.boolean;
}

std::vector<std::string> get_string_array(const Value& obj,
                                          const std::string& key,
                                          const std::string& origin) {
  const Value& v = get_key(obj, key, origin);
  if (v.kind != Value::Kind::kArray) key_error(origin, key, "is not an array");
  std::vector<std::string> out;
  out.reserve(v.array.size());
  for (const Value& e : v.array) {
    if (e.kind != Value::Kind::kString) {
      key_error(origin, key, "holds a non-string element");
    }
    out.push_back(e.string);
  }
  return out;
}

}  // namespace gridsub::core::json
