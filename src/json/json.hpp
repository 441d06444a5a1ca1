// JSON value model, parser, and serializer.
//
// Used by the HTTP API, the GeoJSON exporter, and the benchmark harness
// output. Objects preserve insertion order so serialized payloads are
// deterministic. The parser is a strict recursive-descent RFC 8259 reader
// with a configurable depth limit; all failures are reported as
// `Status` values (never exceptions) because inputs arrive from sockets.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.hpp"

namespace crowdweb::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered key/value entries.
using Object = std::vector<std::pair<std::string, Value>>;

enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

/// A JSON document node with value semantics.
class Value {
 public:
  Value() noexcept : storage_(nullptr) {}
  Value(std::nullptr_t) noexcept : storage_(nullptr) {}  // NOLINT
  Value(bool b) noexcept : storage_(b) {}                // NOLINT
  Value(int i) noexcept : storage_(static_cast<std::int64_t>(i)) {}       // NOLINT
  Value(unsigned i) noexcept : storage_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(long i) noexcept : storage_(static_cast<std::int64_t>(i)) {}      // NOLINT
  Value(long long i) noexcept : storage_(static_cast<std::int64_t>(i)) {} // NOLINT
  Value(unsigned long i) noexcept : storage_(static_cast<std::int64_t>(i)) {}      // NOLINT
  Value(unsigned long long i) noexcept : storage_(static_cast<std::int64_t>(i)) {} // NOLINT
  Value(double d) noexcept : storage_(d) {}               // NOLINT
  Value(const char* s) : storage_(std::string(s)) {}      // NOLINT
  Value(std::string_view s) : storage_(std::string(s)) {} // NOLINT
  Value(std::string s) noexcept : storage_(std::move(s)) {} // NOLINT
  Value(Array a) noexcept : storage_(std::move(a)) {}       // NOLINT
  Value(Object o) noexcept : storage_(std::move(o)) {}      // NOLINT

  [[nodiscard]] Type type() const noexcept {
    return static_cast<Type>(storage_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_int() const noexcept { return type() == Type::kInt; }
  [[nodiscard]] bool is_double() const noexcept { return type() == Type::kDouble; }
  /// True for both integral and floating numbers.
  [[nodiscard]] bool is_number() const noexcept { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const noexcept { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type() == Type::kObject; }

  /// Typed accessors; precondition: matching type (asserted).
  [[nodiscard]] bool as_bool() const { return std::get<bool>(storage_); }
  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(storage_); }
  /// Numeric value as double (works for both int and double nodes).
  [[nodiscard]] double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(storage_));
    return std::get<double>(storage_);
  }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(storage_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(storage_); }
  [[nodiscard]] Array& as_array() { return std::get<Array>(storage_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(storage_); }
  [[nodiscard]] Object& as_object() { return std::get<Object>(storage_); }

  /// Object member lookup; returns nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;

  /// Inserts or overwrites an object member (converts a null value to an
  /// empty object first; asserts on other types).
  void set(std::string key, Value value);

  /// Appends to an array (converts null to an empty array first).
  void push_back(Value value);

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.storage_ == b.storage_;
  }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object>
      storage_;
};

/// Builds an object from `{ {"k", v}, ... }` pairs.
[[nodiscard]] Value object(std::initializer_list<std::pair<std::string, Value>> members);

/// Builds an array from values.
[[nodiscard]] Value array(std::initializer_list<Value> items);

struct ParseOptions {
  std::size_t max_depth = 128;
};

/// Parses a complete JSON document (trailing garbage is an error).
[[nodiscard]] Result<Value> parse(std::string_view text, ParseOptions options = {});

struct DumpOptions {
  /// 0 = compact; otherwise the number of spaces per indent level.
  int indent = 0;
};

/// Serializes to an RFC 8259 document. Doubles that hold integral values
/// keep a trailing ".0" so round-trips preserve the type.
[[nodiscard]] std::string dump(const Value& value, DumpOptions options = {});

// Appenders for writers that emit JSON straight into a body; each writes
// exactly the bytes dump() writes for the same value.

/// Appends an integer.
void append_int(std::string& out, std::int64_t value);

/// Appends a double: shortest round-trip form, ".0" on integral values,
/// null for NaN and ±Inf.
void append_double(std::string& out, double value);

/// Appends `text` escaped as the *contents* of a JSON string (no
/// surrounding quotes): '"', '\\' and bytes below 0x20 are escaped.
void append_escaped(std::string& out, std::string_view text);

}  // namespace crowdweb::json
