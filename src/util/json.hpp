// Minimal JSON writer and reader for machine-readable flow reports.
//
// Writing:
//   JsonWriter json;
//   json.begin_object();
//   json.key("wirelength").value(1234);
//   json.key("layers").begin_array();
//   json.value(2).value(3);
//   json.end_array();
//   json.end_object();
//   std::string text = json.str();
//
// Reading (schema checks and round-trip tests):
//   auto doc = parse_json(text);
//   if (doc && doc->is_object()) { const JsonValue* wl = doc->find("wirelength"); }
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sadp::util {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key (must be inside an object).
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& text);
  JsonWriter& value(const char* text);
  JsonWriter& value(long long number);
  JsonWriter& value(int number) { return value(static_cast<long long>(number)); }
  JsonWriter& value(std::size_t number) {
    return value(static_cast<long long>(number));
  }
  JsonWriter& value(double number);
  JsonWriter& value(bool flag);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

  /// Escape a string per JSON rules (exposed for tests).
  [[nodiscard]] static std::string escape(const std::string& text);

 private:
  void separator();

  std::string out_;
  /// Stack of container states: 'o' fresh object, 'O' object with entries,
  /// 'a' fresh array, 'A' array with entries, 'k' after a key.
  std::string stack_;
};

/// A parsed JSON value.  Numbers are kept as double (the metrics schema
/// emits nothing that loses precision at 2^53); object member order is
/// preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const noexcept { return type == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
};

/// Largest magnitude of a wire integer: JSON numbers are doubles, and past
/// 2^53 consecutive integers stop being distinct.
inline constexpr std::int64_t kJsonMaxInt = (std::int64_t{1} << 53) - 1;

/// Checked narrowing of a JSON number to an integer: true, with *out set,
/// when `value` is a number holding an integer in [lo, hi]; otherwise false,
/// *out untouched and "field '<field>' must be an integer in [lo, hi]" in
/// *error.  The tests run on the double before any cast, so no input (1e30,
/// -1 for a count, 0.5, NaN) reaches an undefined conversion.  lo and hi
/// must lie within +-kJsonMaxInt.
[[nodiscard]] bool json_integer(const JsonValue& value, std::string_view field,
                                std::int64_t lo, std::int64_t hi,
                                std::int64_t* out, std::string* error);

/// json_integer over Int's whole range (clipped to +-kJsonMaxInt).
template <typename Int>
[[nodiscard]] bool json_int(const JsonValue& value, std::string_view field,
                            Int* out, std::string* error) {
  using Limits = std::numeric_limits<Int>;
  constexpr std::int64_t lo =
      std::cmp_less(Limits::min(), -kJsonMaxInt)
          ? -kJsonMaxInt
          : static_cast<std::int64_t>(Limits::min());
  constexpr std::int64_t hi = std::cmp_greater(Limits::max(), kJsonMaxInt)
                                  ? kJsonMaxInt
                                  : static_cast<std::int64_t>(Limits::max());
  std::int64_t value64 = 0;
  if (!json_integer(value, field, lo, hi, &value64, error)) return false;
  *out = static_cast<Int>(value64);
  return true;
}

/// Integer member `key` of `doc` ("absent = default, mistyped = error"):
/// absent succeeds and leaves *out untouched; present goes through json_int.
template <typename Int>
[[nodiscard]] bool read_json_int(const JsonValue& doc, std::string_view key,
                                 Int* out, std::string* error) {
  const JsonValue* v = doc.find(key);
  return v == nullptr || json_int(*v, key, out, error);
}

/// String, number and bool members of `doc`, with read_json_int's contract:
/// absent succeeds and leaves *out untouched; a member of another type fails
/// with "field '<key>' must be a string" (a number, a bool) in *error.  A
/// newer writer may add members an older reader ignores, but a member the
/// reader knows must have its type.
[[nodiscard]] bool read_string(const JsonValue& doc, std::string_view key,
                               std::string* out, std::string* error);
[[nodiscard]] bool read_number(const JsonValue& doc, std::string_view key,
                               double* out, std::string* error);
[[nodiscard]] bool read_bool(const JsonValue& doc, std::string_view key,
                             bool* out, std::string* error);

/// Parse a complete JSON document.  Trailing non-whitespace, malformed
/// escapes, etc. are errors; on failure returns nullopt and, when `error`
/// is non-null, stores a one-line description with the byte offset.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace sadp::util
