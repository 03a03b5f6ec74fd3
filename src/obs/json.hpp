// Minimal JSON support for the observability exporters: a streaming writer
// whose double formatting round-trips bit-exactly (%.17g + strtod), a cursor
// writer for the span exports' many records of one shape, and a small
// recursive-descent parser used by tests and tools to validate and read back
// exported files. No external dependencies.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace upanns::obs {

/// The widest text write_number and write_integer produce: %.17g of a
/// negative double with a three-digit exponent ("-2.2250738585072014e-308"),
/// and a 20-digit u64 or a negative 19-digit i64.
inline constexpr std::size_t kMaxNumberChars = 24;
inline constexpr std::size_t kMaxIntegerChars = 20;

/// Bytes write_escaped produces for `s`.
std::size_t json_escaped_size(std::string_view s);

/// The one escaping and the one number routine of every JSON export. Each
/// writes at `p`, which must have room for json_escaped_size(s),
/// kMaxNumberChars or kMaxIntegerChars bytes, and returns the end.
/// Non-finite doubles become 0 (JSON has no inf/nan).
char* write_escaped(char* p, std::string_view s);
char* write_number(char* p, double v);
char* write_integer(char* p, std::uint64_t v);
char* write_integer(char* p, std::int64_t v);

/// Streaming JSON writer. Handles commas and nesting; the caller supplies a
/// well-formed sequence of begin/end/key/value calls (debug-checked).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Splice a pre-rendered JSON value verbatim (the caller guarantees it is
  /// well formed; commas and keys are handled as for any other value).
  JsonWriter& raw(std::string_view json);

  /// Shorthand for key(k).value(v).
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  std::vector<bool> has_item_;  ///< per open scope: emitted an item already?
  bool pending_key_ = false;
};

/// Writes records of one fixed shape straight into a buffer that the caller
/// sized with a JsonBound running the same calls (append_records does
/// both). The bytes equal JsonWriter's for the same fields: the same
/// escaping and digits. The digits of the last doubles it wrote stay in a
/// direct-mapped memo keyed by their bits, since a span forest repeats a
/// few stage starts and shares thousands of times.
class JsonCursor {
 public:
  explicit JsonCursor(char* p);

  /// Verbatim text: punctuation and keys, already valid JSON.
  JsonCursor& raw(std::string_view s) {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
    return *this;
  }
  /// A quoted, escaped string.
  JsonCursor& str(std::string_view s);
  JsonCursor& num(double v);
  JsonCursor& num(std::uint64_t v) {
    p_ = write_integer(p_, v);
    return *this;
  }
  JsonCursor& num(std::int64_t v) {
    p_ = write_integer(p_, v);
    return *this;
  }

  char* end() const { return p_; }

  static constexpr int kMemoBits = 6;
  static constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;
  /// The memo slot that holds the digits of a double with these bits
  /// (Fibonacci hashing: the top bits of a golden-ratio product).
  static std::size_t memo_slot(std::uint64_t bits) {
    return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >>
                                    (64 - kMemoBits));
  }

 private:
  struct Digits {
    std::uint64_t bits;
    std::uint8_t size;
    char text[kMaxNumberChars];
  };

  char* p_;
  std::array<Digits, kMemoSlots> memo_;
};

/// Takes the calls of a JsonCursor and adds up the most bytes they can
/// write: integers exactly, kMaxNumberChars for every double.
class JsonBound {
 public:
  JsonBound& raw(std::string_view s) {
    n_ += s.size();
    return *this;
  }
  JsonBound& str(std::string_view s) {
    n_ += 2 + json_escaped_size(s);
    return *this;
  }
  JsonBound& num(double) {
    n_ += kMaxNumberChars;
    return *this;
  }
  JsonBound& num(std::uint64_t v) {
    n_ += digits(v);
    return *this;
  }
  JsonBound& num(std::int64_t v) {
    const auto magnitude = static_cast<std::uint64_t>(v);
    n_ += v < 0 ? 1 + digits(0 - magnitude) : digits(magnitude);
    return *this;
  }

  std::size_t size() const { return n_; }

 private:
  /// Decimal digits of v.
  static std::size_t digits(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 10000; v /= 10000) n += 4;
    return n + (v >= 10) + (v >= 100) + (v >= 1000);
  }

  std::size_t n_ = 0;
};

/// Append records 0..count-1 and then `tail` to `out`, growing it once:
/// `record(w, i)` renders record i through w, which is a JsonBound on the
/// sizing pass and a JsonCursor on the writing pass.
template <class Record>
void append_records(std::string& out, std::size_t count, const Record& record,
                    std::string_view tail) {
  JsonBound bound;
  for (std::size_t i = 0; i < count; ++i) record(bound, i);
  const std::size_t at = out.size();
  out.resize(at + bound.size() + tail.size());
  JsonCursor cursor(out.data() + at);
  for (std::size_t i = 0; i < count; ++i) record(cursor, i);
  cursor.raw(tail);
  out.resize(static_cast<std::size_t>(cursor.end() - out.data()));
}

std::string json_escape(std::string_view s);

/// Format a double so that strtod reads back the identical bits.
std::string json_number(double v);

/// Parsed JSON document node.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool has(const std::string& k) const {
    return is_object() && object.count(k) > 0;
  }
  /// Object member access; throws std::out_of_range when missing.
  const JsonValue& at(const std::string& k) const;
  /// Array element access; throws std::out_of_range when out of bounds.
  const JsonValue& at(std::size_t i) const;
};

/// Parse a complete JSON document (throws std::runtime_error on malformed
/// input or trailing garbage).
JsonValue json_parse(std::string_view text);

}  // namespace upanns::obs
