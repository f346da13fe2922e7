#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sadp::util {

bool json_integer(const JsonValue& value, std::string_view field,
                  std::int64_t lo, std::int64_t hi, std::int64_t* out,
                  std::string* error) {
  // lo and hi are exact as doubles (|.| < 2^53), so these compares are too;
  // NaN fails them.
  const double v = value.number_value;
  if (!value.is_number() || !(v >= static_cast<double>(lo)) ||
      !(v <= static_cast<double>(hi)) || v != std::trunc(v)) {
    if (error != nullptr) {
      *error = "field '" + std::string(field) + "' must be an integer in [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]";
    }
    return false;
  }
  *out = static_cast<std::int64_t>(v);
  return true;
}

namespace {

/// The read_string / read_number / read_bool failure for a mistyped member.
bool mistyped(std::string_view key, const char* type, std::string* error) {
  if (error != nullptr) {
    *error = "field '" + std::string(key) + "' must be a " + type;
  }
  return false;
}

}  // namespace

bool read_string(const JsonValue& doc, std::string_view key, std::string* out,
                 std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) return mistyped(key, "string", error);
  *out = v->string_value;
  return true;
}

bool read_number(const JsonValue& doc, std::string_view key, double* out,
                 std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) return mistyped(key, "number", error);
  *out = v->number_value;
  return true;
}

bool read_bool(const JsonValue& doc, std::string_view key, bool* out,
               std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) return mistyped(key, "bool", error);
  *out = v->bool_value;
  return true;
}

std::string JsonWriter::escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::separator() {
  if (stack_.empty()) return;
  char& top = stack_.back();
  if (top == 'O' || top == 'A') {
    out_ += ',';
  } else if (top == 'o') {
    top = 'O';
  } else if (top == 'a') {
    top = 'A';
  } else if (top == 'k') {
    stack_.pop_back();  // the value consumes the pending key
    return;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  stack_ += 'o';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  if (!stack_.empty()) stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  stack_ += 'a';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  if (!stack_.empty()) stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  separator();
  out_ += '"';
  out_ += escape(name);
  out_ += "\":";
  stack_ += 'k';
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& text) {
  separator();
  out_ += '"';
  out_ += escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) { return value(std::string(text)); }

JsonWriter& JsonWriter::value(long long number) {
  separator();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separator();
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separator();
  out_ += flag ? "true" : "false";
  return *this;
}

// --- Parsing -----------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view with a byte cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!parse_value(value)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing content at offset " + std::to_string(pos_);
      }
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail("unterminated escape");
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
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape digit");
            }
            // UTF-8 encode the code point (BMP only; surrogate pairs are not
            // emitted by JsonWriter and are passed through unpaired).
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
          default: return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number_value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      pos_ = start;
      return fail("malformed number");
    }
    out.type = JsonValue::Type::kNumber;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        out.type = JsonValue::Type::kObject;
        skip_whitespace();
        if (consume('}')) return true;
        while (true) {
          skip_whitespace();
          std::string key;
          if (!parse_string(key)) return false;
          skip_whitespace();
          if (!consume(':')) return fail("expected ':'");
          JsonValue member;
          if (!parse_value(member)) return false;
          out.object.emplace_back(std::move(key), std::move(member));
          skip_whitespace();
          if (consume(',')) continue;
          if (consume('}')) return true;
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos_;
        out.type = JsonValue::Type::kArray;
        skip_whitespace();
        if (consume(']')) return true;
        while (true) {
          JsonValue element;
          if (!parse_value(element)) return false;
          out.array.push_back(std::move(element));
          skip_whitespace();
          if (consume(',')) continue;
          if (consume(']')) return true;
          return fail("expected ',' or ']'");
        }
      }
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string_value);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.bool_value = true;
        return parse_literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.bool_value = false;
        return parse_literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return parse_literal("null");
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

}  // namespace sadp::util
