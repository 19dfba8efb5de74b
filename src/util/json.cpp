#include "util/json.hpp"

#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace coopcr {

namespace {

std::string kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

}  // namespace

bool JsonValue::as_bool() const {
  COOPCR_CHECK(kind_ == Kind::kBool,
               "JSON value is " + kind_name(kind_) + ", expected bool");
  return bool_;
}

double JsonValue::as_double() const {
  COOPCR_CHECK(kind_ == Kind::kNumber,
               "JSON value is " + kind_name(kind_) + ", expected number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_double();
  // int64 spans [-2^63, 2^63); 2^63 itself is the double nearest to
  // int64 max, so the upper bound must be exclusive.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  COOPCR_CHECK(std::nearbyint(d) == d && d >= -kTwoTo63 && d < kTwoTo63,
               "JSON number is not an exact integer");
  return static_cast<std::int64_t>(d);
}

const std::string& JsonValue::as_string() const {
  COOPCR_CHECK(kind_ == Kind::kString,
               "JSON value is " + kind_name(kind_) + ", expected string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  COOPCR_CHECK(kind_ == Kind::kArray,
               "JSON value is " + kind_name(kind_) + ", expected array");
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::as_object() const {
  COOPCR_CHECK(kind_ == Kind::kObject,
               "JSON value is " + kind_name(kind_) + ", expected object");
  return object_;
}

bool JsonValue::has(const std::string& key) const {
  if (kind_ != Kind::kObject) return false;
  for (const Member& member : object_) {
    if (member.first == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const Member& member : as_object()) {
    if (member.first == key) return member.second;
  }
  throw Error("JSON object has no member \"" + key + "\"");
}

/// Strict single-pass parser over the document text.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    COOPCR_CHECK(pos_ == text_.size(),
                 "trailing garbage after JSON document at byte " +
                     std::to_string(pos_));
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Bounded recursion: a hostile document is refused instead of
        // exhausting the stack (emitted artifacts nest 6 levels deep).
        if (++depth_ > 256) fail("nesting deeper than 256 levels");
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind_ = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.bool_ = true;
        } else if (consume_literal("false")) {
          v.bool_ = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_whitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // The emitter only writes \u00XX for control bytes; decode the
          // Basic-Latin range and reject anything that needs UTF-16 pairs.
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') {
              value += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          if (value > 0x7F) fail("non-ASCII \\u escape is not supported");
          out += static_cast<char>(value);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    const char* begin = token.c_str();
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end != begin + token.size() || token.empty()) {
      pos_ = start;
      fail("bad number \"" + token + "\"");
    }
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace coopcr
