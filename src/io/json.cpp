#include "io/json.h"

#include <charconv>
#include <cmath>
#include <algorithm>
#include <cstdint>

namespace deltanc::io::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw TypeError(std::string("json: expected ") + want + ", got " +
                  kNames[static_cast<std::size_t>(got)]);
}

/// Characters a JSON string cannot carry verbatim: the quote, the
/// backslash, and the C0 controls.  Everything else -- including UTF-8
/// multibyte sequences -- passes through as-is.
constexpr bool needs_escape(char c) noexcept {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// The escape append_quoted writes for `c`, a byte needs_escape accepts,
/// into `buf`; returns its length.
std::size_t escape_of(char c, char (&buf)[6]) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  buf[0] = '\\';
  switch (c) {
    case '"':
      buf[1] = '"';
      return 2;
    case '\\':
      buf[1] = '\\';
      return 2;
    case '\b':
      buf[1] = 'b';
      return 2;
    case '\f':
      buf[1] = 'f';
      return 2;
    case '\n':
      buf[1] = 'n';
      return 2;
    case '\r':
      buf[1] = 'r';
      return 2;
    case '\t':
      buf[1] = 't';
      return 2;
    default: {
      const auto code = static_cast<unsigned char>(c);
      buf[1] = 'u';
      buf[2] = '0';
      buf[3] = '0';
      buf[4] = kHex[code >> 4];
      buf[5] = kHex[code & 0xF];
      return 6;
    }
  }
}

/// The four hex digits of a \u escape at `p` (advanced past them);
/// `fail(at, what)` reports a malformed one.  For text the reader has
/// already checked, `fail` is never called.
template <typename Fail>
unsigned read_hex4(const char*& p, const char* end, Fail&& fail) {
  unsigned code = 0;
  for (int i = 0; i < 4; ++i) {
    if (p == end) fail(p, "unterminated \\u escape");
    const char c = *p++;
    code <<= 4;
    if (c >= '0' && c <= '9') {
      code |= static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      code |= static_cast<unsigned>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      code |= static_cast<unsigned>(c - 'A' + 10);
    } else {
      fail(p, "invalid \\u escape");
    }
  }
  return code;
}

/// The code point of one \u escape whose digits start at `p`: a
/// surrogate pair is combined when the low half follows immediately; a
/// lone surrogate becomes U+FFFD (and an escape after a high half that
/// is not a low half is read again on its own).
template <typename Fail>
unsigned read_code_point(const char*& p, const char* end, Fail&& fail) {
  const unsigned code = read_hex4(p, end, fail);
  if (code >= 0xD800 && code <= 0xDBFF) {
    if (end - p >= 2 && p[0] == '\\' && p[1] == 'u') {
      const char* low_at = p + 2;
      const unsigned low = read_hex4(low_at, end, fail);
      if (low >= 0xDC00 && low <= 0xDFFF) {
        p = low_at;
        return 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
      }
    }
    return 0xFFFD;
  }
  if (code >= 0xDC00 && code <= 0xDFFF) return 0xFFFD;
  return code;
}

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// Appends the bytes of a string's text (between its quotes), which the
/// reader has checked, with every escape resolved.
void unescape(std::string_view text, std::string& out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  const auto checked = [](const char*, const char*) {};
  while (p != end) {
    const char* const run = p;
    while (p != end && *p != '\\') ++p;
    out.append(run, p);
    if (p == end) break;
    ++p;  // the backslash
    switch (const char c = *p++) {
      case 'b':
        out += '\b';
        break;
      case 'f':
        out += '\f';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      case 'u':
        append_utf8(out, read_code_point(p, end, checked));
        break;
      default:  // '"', '\\' and '/' stand for themselves
        out += c;
    }
  }
}

}  // namespace

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(
        "json: cannot serialize a non-finite number; encode it as a string "
        "(\"inf\"/\"-inf\"/\"nan\") at the codec layer");
  }
  // The shortest text that parses back to the identical double: fixed
  // or exponent form, whichever is shorter ("-0", "100", "1e+05",
  // "0.989"), with no locale lookup.
  char buf[32];  // the longest is "-2.2250738585072014e-308"
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!needs_escape(s[i])) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    char escape[6];
    out.append(escape, escape_of(s[i], escape));
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

bool quoted_equals(std::string_view token, std::string_view s) noexcept {
  if (token.size() < 2 || token.front() != '"' || token.back() != '"') {
    return false;
  }
  std::string_view rest = token.substr(1, token.size() - 2);
  // Takes `piece` off the front of `rest`, if it is there.
  const auto take = [&rest](std::string_view piece) {
    if (rest.substr(0, piece.size()) != piece) return false;
    rest.remove_prefix(piece.size());
    return true;
  };
  // The runs and escapes of append_quoted, in its order.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!needs_escape(s[i])) continue;
    char escape[6];
    if (!take(s.substr(run, i - run)) ||
        !take({escape, escape_of(s[i], escape)})) {
      return false;
    }
    run = i + 1;
  }
  return take(s.substr(run)) && rest.empty();
}

namespace {

void append_value(std::string& out, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      return;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case Value::Type::kNumber:
      append_number(out, v.as_number());
      return;
    case Value::Type::kString:
      append_quoted(out, v.as_string());
      return;
    case Value::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& item : v.items()) {
        if (!first) out += ',';
        first = false;
        append_value(out, item);
      }
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, item] : v.members()) {
        if (!first) out += ',';
        first = false;
        append_quoted(out, key);
        out += ':';
        append_value(out, item);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&storage_)) return *b;
  type_error("bool", type());
}

double Value::as_number() const {
  if (const double* d = std::get_if<double>(&storage_)) return *d;
  type_error("number", type());
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&storage_)) return *s;
  type_error("string", type());
}

Value& Value::push_back(Value element) {
  if (is_null()) storage_ = std::vector<Value>();
  if (auto* a = std::get_if<std::vector<Value>>(&storage_)) {
    a->push_back(std::move(element));
    return *this;
  }
  type_error("array", type());
}

const std::vector<Value>& Value::items() const {
  if (const auto* a = std::get_if<std::vector<Value>>(&storage_)) return *a;
  type_error("array", type());
}

std::size_t Value::size() const {
  if (const auto* a = std::get_if<std::vector<Value>>(&storage_)) {
    return a->size();
  }
  if (const auto* o = std::get_if<Members>(&storage_)) return o->size();
  type_error("array or object", type());
}

const Value& Value::at(std::size_t index) const { return items().at(index); }

Value& Value::set(std::string key, Value element) {
  if (is_null()) storage_ = Members();
  if (auto* o = std::get_if<Members>(&storage_)) {
    for (auto& [k, v] : *o) {
      if (k == key) {
        v = std::move(element);
        return *this;
      }
    }
    o->emplace_back(std::move(key), std::move(element));
    return *this;
  }
  type_error("object", type());
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw TypeError("json: missing key \"" + std::string(key) + "\"");
}

const Members& Value::members() const {
  if (const auto* o = std::get_if<Members>(&storage_)) return *o;
  type_error("object", type());
}

std::string Value::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

// ----- the reader ---------------------------------------------------------

/// One left-to-right pass over the text with an explicit stack of open
/// containers (no recursion, so hostile nesting costs no C++ stack).
/// The read position is threaded through the helpers as a local (a
/// member would be stored on every byte: a char read may alias it), and
/// the line and column of an error are counted from the text only when
/// one is thrown.
struct Document::Reader {
  static constexpr std::size_t kMaxDepth = 128;

  Document& doc;
  const char* const begin;
  const char* const end;
  // The slot array, grown by doubling; every slot is written in full by
  // push() before anything reads it.  The counters are std::size_t so
  // that stores into a Slot's 32-bit fields cannot alias them.
  std::size_t capacity;
  Slot* slots = nullptr;
  std::size_t count = 0;
  std::size_t open[kMaxDepth + 1] = {};  ///< slots of the open containers
  std::size_t depth = 0;
  std::size_t escaped_bytes = 0;  ///< Document::escaped_bytes_

  Reader(Document& d, std::size_t initial_capacity)
      : doc(d),
        begin(d.text_.data()),
        end(d.text_.data() + d.text_.size()),
        capacity(initial_capacity) {
    doc.slots_ = std::make_unique_for_overwrite<Slot[]>(capacity);
    slots = doc.slots_.get();
  }

  /// Throws "json: <what>" positioned at `at` (1-based line and column).
  [[noreturn]] void fail(const char* at, const char* what) const {
    std::size_t line = 1;
    const char* line_start = begin;
    for (const char* c = begin; c != at; ++c) {
      if (*c == '\n') {
        ++line;
        line_start = c + 1;
      }
    }
    throw ParseError(std::string("json: ") + what, line,
                     static_cast<std::size_t>(at - line_start) + 1);
  }

  const char* skip_whitespace(const char* p) const noexcept {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
    return p;
  }

  /// Past the plain string bytes at `p`: up to the quote, the backslash,
  /// a control byte or the end.
  const char* skip_plain(const char* p) const noexcept {
    while (p != end && !needs_escape(*p)) ++p;
    return p;
  }

  Slot& push(Value::Type type) {
    if (count == capacity) grow();
    Slot& slot = slots[count++];
    slot.type = type;
    slot.escaped = false;
    slot.decoded = false;
    slot.size = 0;
    slot.end = static_cast<std::uint32_t>(count);
    slot.begin = 0;
    slot.number = 0.0;
    return slot;
  }

  void grow() {
    capacity *= 2;
    auto bigger = std::make_unique_for_overwrite<Slot[]>(capacity);
    std::copy_n(slots, count, bigger.get());
    doc.slots_ = std::move(bigger);
    slots = doc.slots_.get();
  }

  void run() {
    const char* p = begin;
    for (;;) {
      // One value, at nesting depth `depth`.
      if (depth > kMaxDepth) fail(p, "nesting deeper than 128 levels");
      p = skip_whitespace(p);
      if (p == end) fail(p, "unexpected end of input");
      if (depth > 0) ++slots[open[depth - 1]].size;
      switch (*p) {
        case '[':
        case '{': {
          const auto bracket = static_cast<std::uint32_t>(p - begin);
          const bool object = *p++ == '{';
          open[depth++] = count;
          push(object ? Value::Type::kObject : Value::Type::kArray).begin =
              bracket;
          p = skip_whitespace(p);
          if (p != end && *p == (object ? '}' : ']')) {
            close(++p);
            break;
          }
          if (object) p = read_key(p);
          continue;  // the first element or member value
        }
        case '"':
          p = read_string(p);
          break;
        case 'n':
          p = read_literal(p, "null", "invalid literal (expected 'null')");
          push(Value::Type::kNull);
          break;
        case 't':
          p = read_literal(p, "true", "invalid literal (expected 'true')");
          push(Value::Type::kBool).boolean = true;
          break;
        case 'f':
          p = read_literal(p, "false", "invalid literal (expected 'false')");
          push(Value::Type::kBool).boolean = false;
          break;
        default:
          p = read_number(p);
      }
      // The value is complete: close the containers it completes, then
      // move on to the next element or member.
      for (;;) {
        if (depth == 0) {
          p = skip_whitespace(p);
          if (p != end) fail(p, "trailing characters after JSON document");
          return;
        }
        const bool object = slots[open[depth - 1]].type == Value::Type::kObject;
        p = skip_whitespace(p);
        if (p == end) {
          fail(p, object ? "unterminated object" : "unterminated array");
        }
        const char c = *p++;
        if (c == (object ? '}' : ']')) {
          close(p);
          continue;
        }
        if (c != ',') {
          fail(p, object ? "expected ',' or '}' in object"
                         : "expected ',' or ']' in array");
        }
        if (object) p = read_key(p);
        break;
      }
    }
  }

  /// Closes the innermost container; `p` is past its closing bracket.
  void close(const char* p) noexcept {
    Slot& slot = slots[open[--depth]];
    slot.end = static_cast<std::uint32_t>(count);
    slot.finish = static_cast<std::uint32_t>(p - begin);
  }

  /// A member's key and its ':'; the key is a string slot right before
  /// the member's value.
  const char* read_key(const char* p) {
    p = skip_whitespace(p);
    if (p == end || *p != '"') fail(p, "expected string key in object");
    p = skip_whitespace(read_string(p));
    if (p == end || *p++ != ':') fail(p, "expected ':' after object key");
    return p;
  }

  const char* read_literal(const char* p, std::string_view literal,
                           const char* what) const {
    for (const char c : literal) {
      if (p == end || *p++ != c) fail(p, what);
    }
    return p;
  }

  const char* read_number(const char* p) {
    const char* const start = p;
    const bool negative = *p == '-';
    if (negative) ++p;
    if (p == end || !(*p >= '0' && *p <= '9')) fail(p, "invalid number");
    const char* const digits = p;
    std::uint64_t n = 0;  // wraps harmlessly past 19 digits: then unused
    while (p != end && *p >= '0' && *p <= '9') {
      n = n * 10 + static_cast<unsigned>(*p++ - '0');
    }
    const auto number_char = [](char c) {
      return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
             c == '+' || c == '-';
    };
    // Up to 15 digits and nothing else: below 2^53, so the digit loop is
    // exact and equals from_chars' correctly rounded result.
    if ((p == end || !number_char(*p)) && p - digits <= 15) {
      const auto v = static_cast<double>(n);
      push(Value::Type::kNumber).number = negative ? -v : v;
      return p;
    }
    return read_general_number(start, p);
  }

  /// The token at `start` that is not a short integer, through
  /// from_chars; `p` is past its leading digits.
  const char* read_general_number(const char* start, const char* p) {
    const auto number_char = [](char c) {
      return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
             c == '+' || c == '-';
    };
    while (p != end && number_char(*p)) ++p;
    // std::from_chars never consults the C locale's decimal point, so
    // documents read identically under any LC_NUMERIC setting.
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(start, p, v, std::chars_format::general);
    if (ec == std::errc::result_out_of_range) {
      fail(p, "number out of double range");
    }
    if (ec != std::errc{} || ptr != p) fail(p, "invalid number");
    if (!std::isfinite(v)) fail(p, "number out of double range");
    push(Value::Type::kNumber).number = v;
    return p;
  }

  /// A string value or key: a span of the text between its quotes.
  /// Its escapes are checked here but resolved only when it is first
  /// read (Document::unescaped).  A run of plain bytes stops at the
  /// quote, the backslash and every control byte, so it never holds a
  /// newline.
  const char* read_string(const char* p) {
    const char* const first = ++p;  // past the opening quote
    p = skip_plain(p);
    if (p == end) fail(p, "unterminated string");
    const bool escaped = *p != '"';
    while (*p != '"') {
      if (*p++ != '\\') fail(p, "raw control character in string");
      if (p == end) fail(p, "unterminated escape");
      switch (*p++) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          break;
        case 'u':
          (void)read_code_point(p, end, [this](const char* at,
                                               const char* what) {
            fail(at, what);
          });
          break;
        default:
          fail(p, "invalid escape sequence");
      }
      p = skip_plain(p);
      if (p == end) fail(p, "unterminated string");
    }
    Slot& slot = push(Value::Type::kString);
    slot.escaped = escaped;
    slot.begin = static_cast<std::uint32_t>(first - begin);
    slot.size = static_cast<std::uint32_t>(p - first);
    if (escaped) escaped_bytes += slot.size;
    return p + 1;
  }
};

Document::Document(std::string_view text) : text_(text) {
  if (text.size() >= 0xFFFFFFFFu) {
    throw ParseError("json: document of 4 GiB or more", 1, 1);
  }
  // About one slot per 8 bytes of compact JSON: a cache entry or a
  // request line reads without regrowing the array.
  Reader reader(*this, text.size() / 8 + 4);
  reader.run();
  escaped_bytes_ = reader.escaped_bytes;
}

std::string_view Document::unescaped(Slot& slot) const {
  if (!slot.decoded) {
    if (unescaped_.capacity() < escaped_bytes_) {
      unescaped_.reserve(escaped_bytes_);
    }
    const std::size_t offset = unescaped_.size();
    unescape(text_.substr(slot.begin, slot.size), unescaped_);
    slot.unescaped = {static_cast<std::uint32_t>(offset),
                      static_cast<std::uint32_t>(unescaped_.size() - offset)};
    slot.decoded = true;
  }
  return {unescaped_.data() + slot.unescaped.offset, slot.unescaped.size};
}

// ----- Node ---------------------------------------------------------------

void Node::type_error(const char* want) const {
  json::type_error(want, type());
}

Node::Elements Node::items() const {
  const Document::Slot& slot = doc_->slots_[index_];
  if (slot.type != Value::Type::kArray) type_error("array");
  return Elements(doc_, index_, slot.size);
}

Node Node::find(std::string_view key) const {
  const Document::Slot& slot = doc_->slots_[index_];
  if (slot.type != Value::Type::kObject) type_error("object");
  Document::Slot* const slots = doc_->slots_.get();
  std::uint32_t found = 0;  // the value slot; never 0 inside an object
  for (std::uint32_t k = index_ + 1; k < slot.end; k = slots[k + 1].end) {
    if (doc_->string_at(slots[k]) == key) found = k + 1;
  }
  return found != 0 ? Node(doc_, found) : Node();
}

Node Node::at(std::string_view key) const { return required(find(key), key); }

Node required(Node v, std::string_view key) {
  if (!v) throw TypeError("json: missing key \"" + std::string(key) + "\"");
  return v;
}

void Node::lookup(std::span<const std::string_view> names,
                  std::span<Node> out) const {
  const Document::Slot& slot = doc_->slots_[index_];
  if (slot.type != Value::Type::kObject) type_error("object");
  Document::Slot* const slots = doc_->slots_.get();
  for (Node& n : out) n = Node();
  // Members usually arrive in `names` order (the writer's), so the name
  // after the last match is tried first.
  std::size_t next = 0;
  for (std::uint32_t k = index_ + 1; k < slot.end; k = slots[k + 1].end) {
    const std::string_view key = doc_->string_at(slots[k]);
    std::size_t i = next;
    if (i >= names.size() || names[i] != key) {
      i = 0;
      while (i < names.size() && names[i] != key) ++i;
      if (i == names.size()) continue;
    }
    out[i] = Node(doc_, k + 1);
    next = i + 1;
  }
}

std::string_view Node::raw() const {
  const Document::Slot& slot = doc_->slots_[index_];
  switch (slot.type) {
    case Value::Type::kString:
      return doc_->text_.substr(slot.begin - 1, slot.size + 2);
    case Value::Type::kArray:
    case Value::Type::kObject:
      return doc_->text_.substr(slot.begin, slot.finish - slot.begin);
    case Value::Type::kNull:
    case Value::Type::kBool:
    case Value::Type::kNumber:
      break;
  }
  type_error("string, array or object");
}

Value Node::to_value() const {
  Document::Slot& slot = doc_->slots_[index_];
  switch (slot.type) {
    case Value::Type::kNull:
      return Value::null();
    case Value::Type::kBool:
      return Value::boolean(slot.boolean);
    case Value::Type::kNumber:
      return Value::number(slot.number);
    case Value::Type::kString:
      return Value::string(std::string(doc_->string_at(slot)));
    case Value::Type::kArray: {
      Value out = Value::array();
      for (const Node element : items()) out.push_back(element.to_value());
      return out;
    }
    case Value::Type::kObject: {
      Value out = Value::object();
      Document::Slot* const slots = doc_->slots_.get();
      for (std::uint32_t k = index_ + 1; k < slot.end; k = slots[k + 1].end) {
        out.set(std::string(doc_->string_at(slots[k])),
                Node(doc_, k + 1).to_value());
      }
      return out;
    }
  }
  return Value::null();
}

void Node::append_dump(std::string& out) const {
  Document::Slot& slot = doc_->slots_[index_];
  switch (slot.type) {
    case Value::Type::kNull:
      out += "null";
      return;
    case Value::Type::kBool:
      out += slot.boolean ? "true" : "false";
      return;
    case Value::Type::kNumber:
      append_number(out, slot.number);
      return;
    case Value::Type::kString:
      append_quoted(out, doc_->string_at(slot));
      return;
    case Value::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Node element : items()) {
        if (!first) out += ',';
        first = false;
        element.append_dump(out);
      }
      out += ']';
      return;
    }
    case Value::Type::kObject: {
      // A repeated key is written once, at its first position, with its
      // last value -- as to_value() keeps it.
      Document::Slot* const slots = doc_->slots_.get();
      const auto next = [&](std::uint32_t k) { return slots[k + 1].end; };
      out += '{';
      bool first = true;
      for (std::uint32_t k = index_ + 1; k < slot.end; k = next(k)) {
        const std::string_view key = doc_->string_at(slots[k]);
        std::uint32_t j = index_ + 1;
        while (j < k && doc_->string_at(slots[j]) != key) j = next(j);
        if (j < k) continue;  // written at its first position
        std::uint32_t last = k;
        for (j = next(k); j < slot.end; j = next(j)) {
          if (doc_->string_at(slots[j]) == key) last = j;
        }
        if (!first) out += ',';
        first = false;
        append_quoted(out, key);
        out += ':';
        Node(doc_, last + 1).append_dump(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Node::dump() const {
  std::string out;
  append_dump(out);
  return out;
}

Value Value::parse(std::string_view text) {
  return Document(text).root().to_value();
}

}  // namespace deltanc::io::json
