#include "io/json.h"

#include <charconv>
#include <cmath>
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

}  // namespace

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument(
        "json: cannot serialize a non-finite number; encode it as a string "
        "(\"inf\"/\"-inf\"/\"nan\") at the codec layer");
  }
  // Byte for byte what printf would write: `%.0f` for integers below
  // 2^53 (exact in an int64, whose to_chars is a plain digit loop; the
  // sign of negative zero is the one thing the int64 cannot carry),
  // `%.17g` for the rest.  std::to_chars is specified "as if by printf"
  // in the C locale, minus the locale lookup and format parsing.
  char buf[32];  // holds "-d.dddddddddddddddde-308" and any integer < 2^53
  char* end = nullptr;
  if (std::fabs(v) < 9.007199254740992e15 &&
      static_cast<double>(static_cast<std::int64_t>(v)) == v) {
    if (v == 0.0 && std::signbit(v)) {
      out += "-0";
      return;
    }
    end = std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(v))
              .ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        17)
              .ptr;
  }
  out.append(buf, end);
}

void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needs_escape(c)) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
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
      default: {
        const auto code = static_cast<unsigned char>(c);
        const char escape[] = {'\\', 'u', '0', '0', kHex[code >> 4],
                               kHex[code & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

namespace {

void append_value(std::string& out, const Value& v, int indent, int depth);

void append_newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void append_array(std::string& out, const std::vector<Value>& items,
                  int indent, int depth) {
  if (items.empty()) {
    out += "[]";
    return;
  }
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    append_newline(out, indent, depth + 1);
    append_value(out, items[i], indent, depth + 1);
  }
  append_newline(out, indent, depth);
  out += ']';
}

void append_object(std::string& out, const Members& members, int indent,
                   int depth) {
  if (members.empty()) {
    out += "{}";
    return;
  }
  out += '{';
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out += ',';
    append_newline(out, indent, depth + 1);
    append_quoted(out, members[i].first);
    out += ':';
    if (indent >= 0) out += ' ';
    append_value(out, members[i].second, indent, depth + 1);
  }
  append_newline(out, indent, depth);
  out += '}';
}

void append_value(std::string& out, const Value& v, int indent, int depth) {
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
    case Value::Type::kArray:
      append_array(out, v.items(), indent, depth);
      return;
    case Value::Type::kObject:
      append_object(out, v.members(), indent, depth);
      return;
  }
}

/// Recursive-descent parser over a string_view, tracking line/column for
/// error messages.  Depth-limited so adversarial input (the cache reads
/// files an operator may hand-edit) cannot overflow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what, line_, pos_ - line_start_ + 1);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  char take() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      line_start_ = pos_;
    }
    return c;
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      take();
    }
  }

  void expect_literal(std::string_view literal) {
    for (const char c : literal) {
      if (eof() || take() != c) {
        fail("invalid literal (expected '" + std::string(literal) + "')");
      }
    }
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 128 levels");
    skip_whitespace();
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        expect_literal("null");
        return Value::null();
      case 't':
        expect_literal("true");
        return Value::boolean(true);
      case 'f':
        expect_literal("false");
        return Value::boolean(false);
      case '"':
        return Value::string(parse_string());
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') take();
    if (eof() || !(peek() >= '0' && peek() <= '9')) fail("invalid number");
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '+' ||
                      peek() == '-')) {
      take();
    }
    // std::from_chars never consults the C locale's decimal point, so
    // documents parse identically under any LC_NUMERIC setting.
    const std::string_view token = text_.substr(start, pos_ - start);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(
        token.data(), token.data() + token.size(), v,
        std::chars_format::general);
    if (ec == std::errc::result_out_of_range) fail("number out of double range");
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    if (!std::isfinite(v)) fail("number out of double range");
    return Value::number(v);
  }

  std::string parse_string() {
    take();  // opening quote
    std::string out;
    for (;;) {
      // One append per run of plain bytes.  A run stops at the quote,
      // the backslash and every control byte, so it never holds a
      // newline and skipping take()'s line bookkeeping loses nothing.
      const std::size_t run = pos_;
      while (!eof() && !needs_escape(peek())) ++pos_;
      out.append(text_.data() + run, pos_ - run);
      if (eof()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') fail("raw control character in string");
      if (eof()) fail("unterminated escape");
      const char esc = take();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
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
          append_utf8(out, parse_hex4());
          break;
        default:
          fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      const char c = take();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return code;
  }

  /// Encodes one BMP code point (surrogate pairs are combined when the
  /// low half follows immediately; a lone surrogate becomes U+FFFD).
  void append_utf8(std::string& out, unsigned code) {
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: look for \uDC00..\uDFFF right after.
      if (pos_ + 1 < text_.size() && peek() == '\\' &&
          text_[pos_ + 1] == 'u') {
        const std::size_t save = pos_;
        take();
        take();
        const unsigned low = parse_hex4();
        if (low >= 0xDC00 && low <= 0xDFFF) {
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else {
          pos_ = save;
          code = 0xFFFD;
        }
      } else {
        code = 0xFFFD;
      }
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      code = 0xFFFD;  // lone low surrogate
    }
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

  Value parse_array(int depth) {
    take();  // '['
    Value out = Value::array();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      take();
      return out;
    }
    for (;;) {
      out.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated array");
      const char c = take();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Value parse_object(int depth) {
    take();  // '{'
    Value out = Value::object();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      take();
      return out;
    }
    for (;;) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected string key in object");
      std::string key = parse_string();
      skip_whitespace();
      if (eof() || take() != ':') fail("expected ':' after object key");
      out.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      if (eof()) fail("unterminated object");
      const char c = take();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
};

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

std::string Value::dump(int indent) const {
  std::string out;
  append_value(out, *this, indent, 0);
  return out;
}

Value Value::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace deltanc::io::json
