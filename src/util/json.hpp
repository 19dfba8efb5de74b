// coopcr/util/json.hpp
//
// Minimal JSON reader (and string escaper) for the repo's own artifacts.
//
// The exp layer emits report JSON (exp/report.cpp) and the serve layer
// reads it back; the container ships no JSON library, so this is a small
// strict recursive-descent parser producing an immutable DOM. It parses
// exactly the RFC 8259 grammar the emitter uses — objects, arrays, strings
// with the emitter's escape set, IEEE doubles via strtod (17-digit values
// round-trip bit-exactly), true/false/null — and throws coopcr::Error with
// a byte offset on malformed input. Numbers are always doubles: the only
// integers in our documents (replica counts, sample sizes, schema versions)
// are far below 2^53.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace coopcr {

/// One parsed JSON value. Object member order is preserved (emission order
/// is deterministic, so tests can rely on it); lookups are linear — our
/// objects are small.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw coopcr::Error naming the expected kind.
  bool as_bool() const;
  double as_double() const;
  /// as_double checked to be an exact integer in [INT64_MIN, INT64_MAX].
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<Member>& as_object() const;

  /// True when this is an object with a member named `key`.
  bool has(const std::string& key) const;
  /// Object member lookup; throws coopcr::Error when absent (naming the
  /// key) or when this is not an object.
  const JsonValue& at(const std::string& key) const;

  /// Parse one complete JSON document (trailing garbage rejected).
  static JsonValue parse(const std::string& text);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Escape `s` for use inside a JSON string literal: quotes, backslashes,
/// \n, \r, \t, and every other control byte as \u00XX (lowercase hex).
/// Every writer of JSON text (report artifacts, advisor answers and error
/// lines) shares this one escape set, which JsonValue::parse reads back.
std::string json_escape(const std::string& s);

}  // namespace coopcr
