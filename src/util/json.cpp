#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/check.h"

namespace tap::util {

// ---------------------------------------------------------------------------
// Construction + accessors
// ---------------------------------------------------------------------------

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  TAP_CHECK(kind_ == Kind::kBool) << "JSON value is not a bool";
  return bool_;
}

double JsonValue::as_number() const {
  TAP_CHECK(kind_ == Kind::kNumber) << "JSON value is not a number";
  return num_;
}

std::int64_t JsonValue::as_int() const {
  // 2^53: every integer up to it is exact in a double, and the bound keeps
  // the cast below defined.
  const double v = as_number();
  TAP_CHECK(std::isfinite(v) && v == std::trunc(v) &&
            std::abs(v) <= 9007199254740992.0)
      << "JSON number " << v << " is not an integer within 2^53";
  return static_cast<std::int64_t>(v);
}

const std::string& JsonValue::as_string() const {
  TAP_CHECK(kind_ == Kind::kString) << "JSON value is not a string";
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  TAP_CHECK(kind_ == Kind::kArray) << "JSON value is not an array";
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  TAP_CHECK(kind_ == Kind::kObject) << "JSON value is not an object";
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  TAP_CHECK(kind_ == Kind::kObject) << "JSON value is not an object";
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  TAP_CHECK(v != nullptr) << "JSON object has no key '" << std::string(key)
                          << "'";
  return *v;
}

void JsonValue::push_back(JsonValue v) {
  TAP_CHECK(kind_ == Kind::kArray) << "JSON value is not an array";
  items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  TAP_CHECK(kind_ == Kind::kObject) << "JSON value is not an object";
  members_.emplace_back(std::move(key), std::move(v));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    TAP_CHECK(pos_ == text_.size())
        << "JSON: trailing characters at offset " << pos_;
    return v;
  }

 private:
  JsonValue value() {
    skip_ws();
    TAP_CHECK(pos_ < text_.size()) << "JSON: unexpected end of input";
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return JsonValue::string(string_body());
      case 't':
        literal("true");
        return JsonValue::boolean(true);
      case 'f':
        literal("false");
        return JsonValue::boolean(false);
      case 'n':
        literal("null");
        return JsonValue();
      default:
        return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v = JsonValue::object();
    skip_ws();
    if (try_consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = string_body();
      skip_ws();
      expect(':');
      v.set(std::move(key), value());
      skip_ws();
      if (try_consume(',')) continue;
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v = JsonValue::array();
    skip_ws();
    if (try_consume(']')) return v;
    while (true) {
      v.push_back(value());
      skip_ws();
      if (try_consume(',')) continue;
      expect(']');
      return v;
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    // dump() spells +-infinity "inf" / "-inf" (%.17g); read them back.
    const std::size_t sign = text_[pos_] == '-' ? 1 : 0;
    if (text_.substr(pos_ + sign, 3) == "inf") {
      pos_ += sign + 3;
      const double inf = std::numeric_limits<double>::infinity();
      return JsonValue::number(sign ? -inf : inf);
    }
    auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits();
    }
    TAP_CHECK(pos_ > start) << "JSON: expected a value at offset " << start;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    TAP_CHECK(end == token.c_str() + token.size())
        << "JSON: malformed number '" << token << "'";
    return JsonValue::number(v);
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      TAP_CHECK(pos_ < text_.size()) << "JSON: unterminated string";
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      TAP_CHECK(pos_ < text_.size()) << "JSON: unterminated escape";
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          const unsigned cp = hex4();
          // Basic-plane code point to UTF-8 (surrogate pairs are not
          // produced by any writer in this repo).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          TAP_CHECK(false) << "JSON: unknown escape '\\" << e << "'";
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      TAP_CHECK(pos_ < text_.size()) << "JSON: truncated \\u escape";
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        TAP_CHECK(false) << "JSON: bad hex digit '" << c << "'";
      }
    }
    return v;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      TAP_CHECK(pos_ < text_.size() && text_[pos_] == *p)
          << "JSON: expected literal '" << word << "'";
      ++pos_;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  void expect(char c) {
    skip_ws();
    TAP_CHECK(pos_ < text_.size() && text_[pos_] == c)
        << "JSON: expected '" << c << "' at offset " << pos_;
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void append_number(double v, std::string& out) {
  char buf[64];
  int n = 0;
  // Exact integers (every count/bytes field) print without a fraction.
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.007199e15) {
    n = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out.append(buf, static_cast<std::size_t>(n));
}

void append_escaped(std::string_view s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

void append_quoted(std::string_view s, std::string& out) {
  out.push_back('"');
  append_escaped(s, out);
  out.push_back('"');
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(s, out);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).document();
}

std::string JsonValue::dump() const {
  std::string out;
  append_to(out);
  return out;
}

void JsonValue::append_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_number(num_, out);
      break;
    case Kind::kString:
      append_quoted(str_, out);
      break;
    case Kind::kArray:
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        items_[i].append_to(out);
      }
      out.push_back(']');
      break;
    case Kind::kObject:
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_quoted(members_[i].first, out);
        out.push_back(':');
        members_[i].second.append_to(out);
      }
      out.push_back('}');
      break;
  }
}

}  // namespace tap::util
