// Minimal deterministic JSON reader/writer for campaign result export.
// Writer output is byte-stable for identical values (fixed number formatting,
// insertion-order keys), which the harness determinism tests rely on; the
// parser preserves member order and numeric lexemes so a parse/dump round
// trip of writer output is byte-identical.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sys/types.hpp"

namespace dnnd::sys {

/// Escapes a string for inclusion inside JSON quotes.
std::string json_escape(std::string_view s);

/// Formats a double with round-trip-stable "%.10g" formatting.
std::string json_number(double v);

/// Streaming JSON builder. Commas and key/value separators are managed
/// automatically; keys appear in insertion order.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Starts a member inside an object; follow with a value or container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// Any integer type (usize, u32, i64, ...). A single template avoids
  /// overload ambiguity on platforms where size_t is a distinct type from
  /// uint64_t.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& value(T v) {
    comma_if_needed();
    if constexpr (std::is_signed_v<T>) {
      out_ += std::to_string(static_cast<long long>(v));
    } else {
      out_ += std::to_string(static_cast<unsigned long long>(v));
    }
    return *this;
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma_if_needed();

  std::string out_;
  std::vector<bool> needs_comma_;  ///< per open container
};

/// Error thrown by parse_json on malformed input; what() carries the byte
/// offset of the failure.
struct JsonParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parsed JSON document node. Objects keep members in source order and
/// numbers keep their source lexeme, so dump() of a parsed JsonWriter
/// document reproduces it byte-for-byte.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  static JsonValue null();
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  static JsonValue string(std::string v);
  static JsonValue array();
  static JsonValue object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonParseError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] u64 as_u64() const;  ///< lexeme-exact for integers > 2^53
  [[nodiscard]] const std::string& as_string() const;

  // ----- array access -------------------------------------------------------
  [[nodiscard]] usize size() const;  ///< element count (array) / member count (object)
  [[nodiscard]] const JsonValue& operator[](usize i) const;  ///< array element
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  void push_back(JsonValue v);

  // ----- object access ------------------------------------------------------
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Member lookup; throws JsonParseError when absent or not an object.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] const std::vector<Member>& members() const;
  void set(std::string key, JsonValue v);

  /// Re-serializes with JsonWriter formatting rules (numbers keep their
  /// parsed lexeme), so parse_json(s).dump() == s for writer-produced s.
  [[nodiscard]] std::string dump() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string text_;  ///< string value, or the numeric source lexeme
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parses a complete JSON document (trailing whitespace allowed, anything
/// else after the value is an error). Throws JsonParseError when malformed.
JsonValue parse_json(std::string_view src);

}  // namespace dnnd::sys
