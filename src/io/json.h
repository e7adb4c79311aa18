// Minimal self-contained JSON reader, document model, and writer -- the
// wire format of the serialization layer (io/codec.h), the persistent
// result cache (io/result_cache.h), and the batch service (io/batch.h).
// No third-party dependency: the container bakes in only the C++
// toolchain, and the subset of JSON we need (RFC 8259 documents with
// insertion-ordered objects) is small.
//
// One grammar: json::Document reads a text in a single pass into one
// flat node array (strings stay spans of the text; one that carries an
// escape is unescaped when it is first read), and json::Node is a
// read-only view into it -- what the codec decoders take.  Node::raw
// hands out the text a string, array or object was read from, so a
// caller can pass stored bytes on without writing them again.
// json::Value is the owning tree that code outside the library (tests,
// benches, load generators) builds documents with; Value::parse is a
// Document materialized into one.
//
// Number fidelity: finite doubles are written in their shortest
// round-trip form (append_number) and parse back bit-exactly.
// JSON itself cannot represent +/-inf or NaN; the codec layer encodes
// those as the strings "inf" / "-inf" / "nan" (see io::decode_double,
// which also accepts C99 hexfloat strings for hand-written documents).
//
// Duplicate object keys: the last value wins (Node::find, Node::lookup)
// and, in a materialized Value, keeps the first key's position.
//
// Error handling: reading throws ParseError with 1-based line/column;
// typed accessors (as_number() on a string, at() on a missing key) throw
// TypeError.  Both derive from std::runtime_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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
/// append_number: the shortest text that parses back to the identical
/// double (std::to_chars round-trip form: fixed or exponent, whichever
/// is shorter, so "-0", "100", "1e+05", "0.989").
/// @throws std::invalid_argument on a non-finite value.
void append_number(std::string& out, double v);
/// append_quoted: `s` as a JSON string literal, escaping the quote, the
/// backslash and the C0 controls; all other bytes (UTF-8 included) pass
/// through verbatim.
void append_quoted(std::string& out, std::string_view s);
/// True when `token` is exactly the text append_quoted(s) writes --
/// compared in place, without writing it.
[[nodiscard]] bool quoted_equals(std::string_view token,
                                 std::string_view s) noexcept;

/// One JSON value: null, bool, number (double), string, array, object.
class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

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
  /// The compact one-line form.
  /// @throws std::invalid_argument on a non-finite number (the codec is
  /// responsible for string-encoding those before they reach the writer).
  [[nodiscard]] std::string dump() const;

  /// Reads one JSON document (json::Document) and materializes it; the
  /// whole input must be consumed (trailing whitespace allowed).
  /// @throws ParseError.
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

class Document;

/// A read-only view of one value inside a json::Document (or an absent
/// value: a default Node, false in a boolean context).  Cheap to copy;
/// valid while its Document lives.  The accessors mirror Value's and
/// throw the same TypeErrors.
class Node {
 public:
  Node() = default;

  /// False for the absent Node (find() of a missing key).
  explicit operator bool() const noexcept { return doc_ != nullptr; }

  /// @pre the Node is present.
  [[nodiscard]] Value::Type type() const noexcept;
  [[nodiscard]] bool is_null() const noexcept {
    return type() == Value::Type::kNull;
  }
  [[nodiscard]] bool is_number() const noexcept {
    return type() == Value::Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type() == Value::Type::kString;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return type() == Value::Type::kObject;
  }

  /// @throws TypeError unless the value holds the requested type.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The unescaped bytes, valid while the Document lives.  A string
  /// that carries an escape is unescaped by its first as_string (into
  /// the Document's side buffer, so two threads must not read one
  /// Document at once).
  [[nodiscard]] std::string_view as_string() const;

  /// The text this value was read from: a string with its quotes and
  /// escapes as written, an array or object from its opening bracket to
  /// its closing one.  @throws TypeError for a number, bool or null.
  [[nodiscard]] std::string_view raw() const;

  /// Forward range over an array's elements.
  class Elements {
   public:
    class iterator {
     public:
      Node operator*() const noexcept { return Node(doc_, index_); }
      iterator& operator++() noexcept;
      bool operator!=(const iterator& other) const noexcept {
        return index_ != other.index_;
      }

     private:
      friend class Elements;
      iterator(const Document* doc, std::uint32_t index) noexcept
          : doc_(doc), index_(index) {}
      const Document* doc_;
      std::uint32_t index_;
    };
    [[nodiscard]] iterator begin() const noexcept;
    [[nodiscard]] iterator end() const noexcept;
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

   private:
    friend class Node;
    Elements(const Document* doc, std::uint32_t index,
             std::size_t size) noexcept
        : doc_(doc), index_(index), size_(size) {}
    const Document* doc_;
    std::uint32_t index_;
    std::size_t size_;
  };

  /// @throws TypeError unless array.
  [[nodiscard]] Elements items() const;

  /// The member named `key` -- the last one when the key repeats -- or
  /// the absent Node.  @throws TypeError unless object.
  [[nodiscard]] Node find(std::string_view key) const;
  /// @throws TypeError when absent (message names the key) or non-object.
  [[nodiscard]] Node at(std::string_view key) const;
  /// One pass over the members: out[i] becomes the member named
  /// names[i] (the last one when a key repeats), or the absent Node.
  /// Decoders read every field of an object through one call.
  /// @pre out.size() == names.size().  @throws TypeError unless object.
  void lookup(std::span<const std::string_view> names,
              std::span<Node> out) const;

  /// The owning copy of this value (objects keep first-key positions
  /// with last values).
  [[nodiscard]] Value to_value() const;
  /// The compact form, written straight from the Document (the bytes
  /// of to_value().dump()), for error messages and the echoed request
  /// id.
  [[nodiscard]] std::string dump() const;

 private:
  friend class Document;
  Node(const Document* doc, std::uint32_t index) noexcept
      : doc_(doc), index_(index) {}
  [[noreturn]] void type_error(const char* want) const;
  void append_dump(std::string& out) const;

  const Document* doc_ = nullptr;
  std::uint32_t index_ = 0;
};

/// `v` when present, else the TypeError Node::at throws for a missing
/// `key` -- for values found through Node::lookup.
[[nodiscard]] Node required(Node v, std::string_view key);

/// One JSON document read in a single pass: every value (and object
/// key) is one slot of a contiguous array in document order, each
/// container knowing where its subtree ends and where its text lies;
/// strings are spans of the text, and one that carries an escape is
/// checked while reading but unescaped into one side buffer only when
/// it is first read; every number is parsed once.  The Document refers into `text`, which must outlive
/// it.  Nesting is limited to 128 levels so hostile input cannot
/// exhaust memory or time; texts of 4 GiB or more are refused.  A
/// Document owns all of its buffers: documents on different threads
/// share nothing.
class Document {
 public:
  /// Reads `text`; the whole input must be consumed (trailing
  /// whitespace allowed).  @throws ParseError.
  explicit Document(std::string_view text);
  // Nodes hold the Document's address: it neither copies nor moves.
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// The top-level value.
  [[nodiscard]] Node root() const noexcept { return Node(this, 0); }

 private:
  friend class Node;
  struct Reader;

  struct Slot {
    Value::Type type;
    bool escaped;  ///< a string with an escape: read through unescaped()
    bool decoded;  ///< an escaped string whose bytes are in unescaped_
    /// String: bytes between its quotes in the text; array: elements;
    /// object: members.
    std::uint32_t size;
    std::uint32_t end;  ///< one past the last slot of this value
    /// String: text offset past its opening quote; array or object:
    /// text offset of its opening bracket.
    std::uint32_t begin;
    union {
      double number;
      bool boolean;
      std::uint32_t finish;  ///< array or object: past its closing bracket
      struct {
        std::uint32_t offset;
        std::uint32_t size;
      } unescaped;  ///< a decoded string's bytes in unescaped_
    };
  };

  [[nodiscard]] std::string_view string_at(Slot& slot) const {
    if (!slot.escaped) return {text_.data() + slot.begin, slot.size};
    return unescaped(slot);
  }
  /// An escaped string's bytes, unescaped into unescaped_ on first use.
  [[nodiscard]] std::string_view unescaped(Slot& slot) const;

  std::string_view text_;
  std::unique_ptr<Slot[]> slots_;  ///< document order; slots_[0] is the root
  /// The unescaped strings, each written once.  The first one reserves
  /// escaped_bytes_ (no string unescapes to more bytes than it was
  /// written with), so a later one never moves an earlier one's bytes.
  mutable std::string unescaped_;
  std::size_t escaped_bytes_ = 0;  ///< text bytes of all escaped strings
};

// ----- Node: the hot accessors, inline -----------------------------------

inline Value::Type Node::type() const noexcept {
  return doc_->slots_[index_].type;
}

inline bool Node::as_bool() const {
  const Document::Slot& slot = doc_->slots_[index_];
  if (slot.type != Value::Type::kBool) type_error("bool");
  return slot.boolean;
}

inline double Node::as_number() const {
  const Document::Slot& slot = doc_->slots_[index_];
  if (slot.type != Value::Type::kNumber) type_error("number");
  return slot.number;
}

inline std::string_view Node::as_string() const {
  Document::Slot& slot = doc_->slots_[index_];
  if (slot.type != Value::Type::kString) type_error("string");
  return doc_->string_at(slot);
}

inline Node::Elements::iterator&
Node::Elements::iterator::operator++() noexcept {
  index_ = doc_->slots_[index_].end;
  return *this;
}

inline Node::Elements::iterator Node::Elements::begin() const noexcept {
  return iterator(doc_, index_ + 1);
}

inline Node::Elements::iterator Node::Elements::end() const noexcept {
  return iterator(doc_, doc_->slots_[index_].end);
}

}  // namespace deltanc::io::json
