#include "sys/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dnnd::sys {

std::string json_escape(std::string_view s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void JsonWriter::comma_if_needed() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma_if_needed();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  // The upcoming value must not emit another comma for this slot.
  needs_comma_.back() = false;
  // Mark that after the value, a comma is due. We re-set it in value()/begin_*.
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma_if_needed();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string_view(v)); }

JsonWriter& JsonWriter::value(double v) {
  comma_if_needed();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma_if_needed();
  out_ += v ? "true" : "false";
  return *this;
}

// ---- JsonValue --------------------------------------------------------------

namespace {

[[noreturn]] void bad_kind(const char* want) {
  throw JsonParseError(std::string("JsonValue: not a ") + want);
}

}  // namespace

JsonValue JsonValue::null() { return {}; }

JsonValue JsonValue::boolean(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.num_ = v;
  j.text_ = json_number(v);
  return j;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.text_ = std::move(v);
  return j;
}

JsonValue JsonValue::array() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue JsonValue::object() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

bool JsonValue::as_bool() const {
  if (!is_bool()) bad_kind("bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (!is_number()) bad_kind("number");
  return num_;
}

u64 JsonValue::as_u64() const {
  if (!is_number()) bad_kind("number");
  // Only a plain non-negative integer lexeme qualifies: strtoull would
  // silently wrap "-7" and truncate "3.5", so reject them like the other
  // typed accessors reject kind mismatches.
  if (text_.empty() ||
      text_.find_first_not_of("0123456789") != std::string::npos) {
    throw JsonParseError("JsonValue: not a non-negative integer: " + text_);
  }
  // Reparse the lexeme so integers above 2^53 survive exactly. strtoull
  // saturates to ULLONG_MAX on overflow instead of failing, so a digits-only
  // lexeme above 2^64-1 must be caught through ERANGE.
  errno = 0;
  char* end = nullptr;
  const u64 v = std::strtoull(text_.c_str(), &end, 10);
  if (errno == ERANGE || end != text_.c_str() + text_.size()) {
    throw JsonParseError("JsonValue: integer out of u64 range: " + text_);
  }
  return v;
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) bad_kind("string");
  return text_;
}

usize JsonValue::size() const {
  if (is_array()) return items_.size();
  if (is_object()) return members_.size();
  bad_kind("container");
}

const JsonValue& JsonValue::operator[](usize i) const {
  if (!is_array()) bad_kind("array");
  if (i >= items_.size()) throw JsonParseError("JsonValue: array index out of range");
  return items_[i];
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (!is_array()) bad_kind("array");
  return items_;
}

void JsonValue::push_back(JsonValue v) {
  if (!is_array()) bad_kind("array");
  items_.push_back(std::move(v));
}

bool JsonValue::contains(std::string_view key) const {
  if (!is_object()) return false;
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (!is_object()) bad_kind("object");
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  throw JsonParseError("JsonValue: missing key \"" + std::string(key) + "\"");
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (!is_object()) bad_kind("object");
  return members_;
}

void JsonValue::set(std::string key, JsonValue v) {
  if (!is_object()) bad_kind("object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

std::string JsonValue::dump() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return bool_ ? "true" : "false";
    case Kind::kNumber: return text_;
    case Kind::kString: return '"' + json_escape(text_) + '"';
    case Kind::kArray: {
      std::string out = "[";
      for (usize i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        out += items_[i].dump();
      }
      return out + ']';
    }
    case Kind::kObject: {
      std::string out = "{";
      for (usize i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        out += '"' + json_escape(members_[i].first) + "\":" + members_[i].second.dump();
      }
      return out + '}';
    }
  }
  throw JsonParseError("JsonValue: corrupt kind");
}

// ---- parser -----------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view src) : src_(src) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != src_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("JSON parse error at byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < src_.size() && (src_[pos_] == ' ' || src_[pos_] == '\t' ||
                                  src_[pos_] == '\n' || src_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= src_.size()) fail("unexpected end of input");
    return src_[pos_];
  }

  void expect(char c) {
    if (pos_ >= src_.size() || src_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (src_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.items_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > src_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = src_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) fail("unterminated string");
      const char c = src_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= src_.size()) fail("unterminated escape");
      const char esc = src_[pos_++];
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
          // The writer only emits \u00XX for control bytes; decode the full
          // range (including UTF-16 surrogate pairs) as UTF-8 for general
          // inputs.
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) fail("lone low surrogate in \\u escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > src_.size() || src_[pos_] != '\\' || src_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate in \\u pair");
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const usize start = pos_;
    if (pos_ < src_.size() && src_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const usize before = pos_;
      while (pos_ < src_.size() && std::isdigit(static_cast<unsigned char>(src_[pos_]))) ++pos_;
      return pos_ > before;
    };
    const usize int_start = pos_;
    if (!digits()) fail("invalid number");
    // JSON grammar: the integer part is "0" or a nonzero-led digit run.
    if (src_[int_start] == '0' && pos_ - int_start > 1) fail("leading zero in number");
    if (pos_ < src_.size() && src_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("digits required after decimal point");
    }
    if (pos_ < src_.size() && (src_[pos_] == 'e' || src_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < src_.size() && (src_[pos_] == '+' || src_[pos_] == '-')) ++pos_;
      if (!digits()) fail("digits required in exponent");
    }
    JsonValue j;
    j.kind_ = JsonValue::Kind::kNumber;
    j.text_ = std::string(src_.substr(start, pos_ - start));
    j.num_ = std::strtod(j.text_.c_str(), nullptr);
    // strtod turns an overflowing lexeme ("1e999") into +-HUGE_VAL; a
    // document carrying a number no double can represent must fail loudly
    // instead of loading as infinity. Underflow (ERANGE with a tiny finite
    // result) is accepted: the nearest representable value is 0-ish, not a
    // lie. as_u64 re-parses integer lexemes itself, so this guard only has
    // to keep the double view honest.
    if (!std::isfinite(j.num_)) fail("number overflows double: " + j.text_);
    return j;
  }

  std::string_view src_;
  usize pos_ = 0;
};

JsonValue parse_json(std::string_view src) { return JsonParser(src).parse_document(); }

}  // namespace dnnd::sys
