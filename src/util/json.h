// Minimal JSON document model: parse + compact dump with order-preserving
// objects. It is the repo's one JSON codec: plans and plan records
// (core/serialize), the wire protocol, reports, the flight recorder and
// the logs all read and write through it.
// Deliberately small: numbers are doubles (exact for |v| <= 2^53, which
// covers every integer the repo serializes), object key lookup is linear,
// and the parser accepts standard JSON (escapes incl. \uXXXX, decoded to
// UTF-8) plus the inf / -inf that dump() writes for infinities, throwing
// util::CheckError on malformed input.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tap::util {

/// JSON string-body escaping (no surrounding quotes): `"` and `\` are
/// backslash-escaped and control characters become \b \f \n \r \t or
/// \u00XX, so the result is always a legal JSON string body. Everything
/// the repo writes (JsonValue::dump, bench::BenchReporter,
/// obs::chrome_trace_json) funnels through this; ad-hoc emitters should
/// too.
std::string json_escape(std::string_view s);

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;

  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  /// Parses one JSON document; trailing non-whitespace throws.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed accessors; requesting the wrong kind throws CheckError.
  bool as_bool() const;
  double as_number() const;
  /// as_number() as an integer; throws unless it is finite, integral and
  /// within +-2^53.
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const;  ///< object entries, in document order

  /// Object lookup: nullptr when absent / throwing variant.
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;

  // Builders (for tests composing documents by hand).
  void push_back(JsonValue v);               ///< array append
  void set(std::string key, JsonValue v);    ///< object append

  /// Compact serialization. Doubles that hold an exact integer print
  /// without a fraction; everything else uses %.17g (bit-exact
  /// round-trip; +-infinity prints as inf / -inf, which parse() accepts).
  std::string dump() const;

 private:
  void append_to(std::string& out) const;  ///< dump() into one buffer

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace tap::util
