// Minimal self-contained JSON document model, parser, and writer -- the
// wire format of the serialization layer (io/codec.h), the persistent
// result cache (io/result_cache.h), and the batch service (io/batch.h).
// No third-party dependency: the container bakes in only the C++
// toolchain, and the subset of JSON we need (RFC 8259 documents with
// insertion-ordered objects) is small.
//
// Number fidelity: finite doubles are written with enough significant
// digits (max_digits10) to round-trip bit-exactly through the parser.
// JSON itself cannot represent +/-inf or NaN; the codec layer encodes
// those as the strings "inf" / "-inf" / "nan" (see io::decode_double,
// which also accepts C99 hexfloat strings for hand-written documents).
//
// Error handling: parse() throws ParseError with 1-based line/column;
// typed accessors (as_number() on a string, at() on a missing key) throw
// TypeError.  Both derive from std::runtime_error.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace deltanc::io::json {

class Value;

/// Object storage: insertion-ordered key/value pairs.  Order is
/// significant for canonicalization (the cache key hashes the dump), so
/// encoders must emit fields in a fixed order -- which insertion order
/// gives them for free.
using Members = std::vector<std::pair<std::string, Value>>;

/// Malformed JSON text.
struct ParseError : std::runtime_error {
  ParseError(const std::string& what, std::size_t line_in,
             std::size_t column_in)
      : std::runtime_error(what), line(line_in), column(column_in) {}
  std::size_t line;    ///< 1-based
  std::size_t column;  ///< 1-based
};

/// A well-formed document queried with the wrong type (or missing key).
struct TypeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The writer's two leaves, shared with the codec's result writer
/// (io/codec.h) so every byte on the wire comes from one formatter.
/// append_number: integers below 2^53 print without an exponent or a
/// trailing ".0" (negative zero as "-0"), everything else with 17
/// significant digits, which parse back to the identical double.
/// @throws std::invalid_argument on a non-finite value.
void append_number(std::string& out, double v);
/// append_quoted: `s` as a JSON string literal, escaping the quote, the
/// backslash and the C0 controls; all other bytes (UTF-8 included) pass
/// through verbatim.
void append_quoted(std::string& out, std::string_view s);

/// One JSON value: null, bool, number (double), string, array, object.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Defaults to null.
  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value number(double v) { return Value(std::in_place_type<double>, v); }
  static Value string(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }
  static Value array() { return Value(std::in_place_type<std::vector<Value>>); }
  static Value object() { return Value(std::in_place_type<Members>); }

  [[nodiscard]] Type type() const noexcept {
    return static_cast<Type>(storage_.index());
  }
  [[nodiscard]] bool is_null() const noexcept { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type() == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return type() == Type::kArray;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type() == Type::kObject;
  }

  /// @throws TypeError unless the value holds the requested type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  // ----- arrays ----------------------------------------------------------
  /// Appends to an array (converts a null value into an empty array
  /// first, so building `v.push_back(...)` on a fresh Value just works).
  /// @throws TypeError when the value holds a non-array, non-null type.
  Value& push_back(Value element);
  /// @throws TypeError unless array.
  [[nodiscard]] const std::vector<Value>& items() const;
  /// Element count (array) or member count (object).
  /// @throws TypeError otherwise.
  [[nodiscard]] std::size_t size() const;
  /// @throws TypeError unless array; std::out_of_range on bad index.
  [[nodiscard]] const Value& at(std::size_t index) const;

  // ----- objects ---------------------------------------------------------
  /// Sets `key` (replacing an existing member in place, else appending);
  /// converts a null value into an empty object first.  Returns *this so
  /// encoders can chain.  @throws TypeError on non-object, non-null.
  Value& set(std::string key, Value element);
  /// Member pointer, or nullptr when absent.  @throws TypeError unless
  /// object.
  [[nodiscard]] const Value* find(std::string_view key) const;
  /// @throws TypeError when absent (message names the key) or non-object.
  [[nodiscard]] const Value& at(std::string_view key) const;
  /// @throws TypeError unless object.
  [[nodiscard]] const Members& members() const;

  // ----- text ------------------------------------------------------------
  /// Serializes the value.  indent < 0: compact one-line form (the
  /// canonical form hashed by the result cache); indent >= 0: pretty,
  /// with that many spaces per nesting level.
  /// @throws std::invalid_argument on a non-finite number (the codec is
  /// responsible for string-encoding those before they reach the writer).
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parses one JSON document; the whole input must be consumed (trailing
  /// whitespace allowed).  @throws ParseError.
  static Value parse(std::string_view text);

 private:
  using Storage = std::variant<std::monostate, bool, double, std::string,
                               std::vector<Value>, Members>;

  // The factories construct the alternative in place: moving a whole
  // Storage through the converting constructor trips GCC 12's
  // -Wmaybe-uninitialized on the variant's visit-based move under
  // ASan at -O2.
  template <typename T, typename... Args>
  explicit Value(std::in_place_type_t<T> alt, Args&&... args)
      : storage_(alt, std::forward<Args>(args)...) {}

  Storage storage_;
};

}  // namespace deltanc::io::json
