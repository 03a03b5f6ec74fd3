#include "obs/json.hpp"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace upanns::obs {

// ---------------------------------------------------------------- writer

namespace {

/// Append `s` JSON-escaped, copying runs of plain characters in one go.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t plain = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

/// Append `v` as %.17g would print it: std::to_chars in the general format
/// at precision 17 is specified as exactly that conversion, without the
/// locale and format-string parsing.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += '0';
    return;
  }
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

}  // namespace

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_ += ',';
    has_item_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  assert(!has_item_.empty());
  has_item_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  assert(!has_item_.empty());
  has_item_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  assert(!pending_key_);
  comma();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

// ---------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // Exporters only emit control-character escapes; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
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
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double num = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = num;
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue& JsonValue::at(const std::string& k) const {
  if (!is_object()) throw std::out_of_range("JsonValue::at: not an object");
  const auto it = object.find(k);
  if (it == object.end()) {
    throw std::out_of_range("JsonValue::at: missing key '" + k + "'");
  }
  return it->second;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (!is_array() || i >= array.size()) {
    throw std::out_of_range("JsonValue::at: bad array index");
  }
  return array[i];
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace upanns::obs
