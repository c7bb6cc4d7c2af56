// hi-opt: the store's in-house JSON kit, shared by every codec that
// emits or parses an hi-*/v1 interchange document (scenarios, crowd
// scenarios, CLI reports).
//
// Deliberately small: objects, arrays, strings, numbers,
// true/false/null — exactly what the writers emit.  Doubles are printed
// shortest-round-trip (std::to_chars) and parsed with strtod, so a
// serialize → parse → serialize cycle is a fixed point and fingerprints
// computed over parsed values survive the trip; non-finite doubles
// (an infeasible cell's best power is +inf) print as null.  The parser
// caps nesting depth, so a hostile file fails cleanly instead of
// overflowing the stack.  Lives in hi::store::detail: tools may use it,
// but it is not a supported public parsing API.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hi::store::detail {

/// Shortest exact decimal rendering of a double (std::to_chars), so the
/// JSON form round-trips bit for bit through strtod; null when the
/// double is not finite.
inline std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 40> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) return "0";
  return std::string(buf.data(), end);
}

/// `s` as a quoted JSON string literal.
inline std::string json_string(std::string_view s) {
  std::string out;
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// The whole content of the file at `path`, or nullopt when it cannot
/// be opened.  Every JSON document the tools read comes through here.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parsed JSON tree node; see the file comment for the supported grammar.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  /// Deepest array/object nesting accepted: far above anything the
  /// writers emit, far below what the parser's recursion could survive.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view s) : s_(s) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> v = value();
    skip_ws();
    if (v && pos_ != s_.size()) {
      fail("trailing characters after JSON value");
      v.reset();
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(std::string_view msg) {
    if (error_.empty()) {
      error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return string_value();
    if (c == 't' || c == 'f' || c == 'n') return keyword();
    return number();
  }

  std::optional<JsonValue> object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::optional<std::string> key = raw_string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<JsonValue> item = value();
      if (!item) return std::nullopt;
      v.fields.emplace_back(std::move(*key), std::move(*item));
      if (consume(',')) continue;
      if (consume('}')) return v;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return v;
    while (true) {
      std::optional<JsonValue> item = value();
      if (!item) return std::nullopt;
      v.items.push_back(std::move(*item));
      if (consume(',')) continue;
      if (consume(']')) return v;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<std::string> raw_string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (s_.size() - pos_ < 4) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            const auto res = std::from_chars(
                s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
            if (res.ec != std::errc{} || res.ptr != s_.data() + pos_ + 4) {
              fail("bad \\u escape");
              return std::nullopt;
            }
            pos_ += 4;
            if (code > 0x7F) {
              fail("non-ASCII \\u escape unsupported");
              return std::nullopt;
            }
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            fail("unknown escape");
            return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> string_value() {
    std::optional<std::string> s = raw_string();
    if (!s) return std::nullopt;
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.text = std::move(*s);
    return v;
  }

  std::optional<JsonValue> keyword() {
    JsonValue v;
    if (s_.substr(pos_, 4) == "true") {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      pos_ += 4;
    } else if (s_.substr(pos_, 5) == "false") {
      v.kind = JsonValue::Kind::kBool;
      pos_ += 5;
    } else if (s_.substr(pos_, 4) == "null") {
      pos_ += 4;
    } else {
      fail("unknown keyword");
      return std::nullopt;
    }
    return v;
  }

  std::optional<JsonValue> number() {
    // Copy a bounded window: the string_view need not be
    // null-terminated, which strtod requires.  strtod accepts exactly
    // the JSON number grammar plus a few extensions (hex, inf, nan)
    // that the writers never emit.
    const std::string window(
        s_.substr(pos_, std::min<std::size_t>(64, s_.size() - pos_)));
    char* end = nullptr;
    const double d = std::strtod(window.c_str(), &end);
    if (end == window.c_str()) {
      fail("expected a number");
      return std::nullopt;
    }
    pos_ += static_cast<std::size_t>(end - window.c_str());
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

/// Typed accessors over a parsed tree; the first mismatch latches an
/// error message and every later access short-circuits.
class ObjectReader {
 public:
  explicit ObjectReader(std::string* error) : error_(error) {}

  [[nodiscard]] bool failed() const { return failed_; }

  void fail(std::string msg) {
    if (!failed_ && error_ != nullptr) *error_ = std::move(msg);
    failed_ = true;
  }

  double num(const JsonValue& obj, std::string_view key) {
    const JsonValue* v = require(obj, key);
    if (v == nullptr) return 0.0;
    if (v->kind != JsonValue::Kind::kNumber) {
      fail("field '" + std::string(key) + "' must be a number");
      return 0.0;
    }
    return v->number;
  }

  int integer(const JsonValue& obj, std::string_view key) {
    const double d = num(obj, key);
    if (failed_) return 0;
    if (!is_int(d)) {
      fail("field '" + std::string(key) + "' must be an integer");
      return 0;
    }
    return static_cast<int>(d);
  }

  std::string str(const JsonValue& obj, std::string_view key) {
    const JsonValue* v = require(obj, key);
    if (v == nullptr) return {};
    if (v->kind != JsonValue::Kind::kString) {
      fail("field '" + std::string(key) + "' must be a string");
      return {};
    }
    return v->text;
  }

  const JsonValue* require(const JsonValue& obj, std::string_view key) {
    if (failed_) return nullptr;
    const JsonValue* v = obj.find(key);
    if (v == nullptr) {
      fail("missing field '" + std::string(key) + "'");
    }
    return v;
  }

  std::vector<int> int_array(const JsonValue& obj, std::string_view key) {
    std::vector<int> out;
    const JsonValue* v = require(obj, key);
    if (v == nullptr) return out;
    if (v->kind != JsonValue::Kind::kArray) {
      fail("field '" + std::string(key) + "' must be an array");
      return out;
    }
    for (const JsonValue& item : v->items) {
      if (item.kind != JsonValue::Kind::kNumber || !is_int(item.number)) {
        fail("field '" + std::string(key) + "' must hold integers");
        return out;
      }
      out.push_back(static_cast<int>(item.number));
    }
    return out;
  }

  /// Rejects keys outside `allowed` so a typo'd field fails loudly
  /// instead of silently keeping the default.
  void check_keys(const JsonValue& obj,
                  std::initializer_list<std::string_view> allowed) {
    if (failed_) return;
    for (const auto& [k, v] : obj.fields) {
      bool known = false;
      for (std::string_view a : allowed) {
        known = known || a == k;
      }
      if (!known) {
        fail("unknown field '" + k + "'");
        return;
      }
    }
  }

 private:
  /// An integral double that casts to int without overflow.
  static bool is_int(double d) {
    return d == std::floor(d) && std::abs(d) <= 1e9;
  }

  std::string* error_;
  bool failed_ = false;
};

}  // namespace hi::store::detail
