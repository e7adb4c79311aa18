// The serialization layer: the JSON document model/parser/writer
// (io/json.h) and the schema-versioned codec (io/codec.h).  The
// load-bearing properties are bit-exact double round-trips (including
// the non-finite encodings) and byte-stable canonical dumps -- the
// persistent result cache hashes them.
#include "e2e/solver.h"
#include "io/codec.h"
#include "read_back.h"

#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "e2e/additive_baseline.h"

namespace deltanc::io {
namespace {

using json::Value;
using testing::ReadBack;
using namespace std::string_view_literals;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The result writer's bytes for `value`.
template <typename T>
std::string written(const T& value) {
  std::string text;
  append_json(text, value);
  return text;
}

/// ...and those bytes read back as a json::Value, for tests that edit
/// the document before decoding it.
template <typename T>
Value written_doc(const T& value) {
  return Value::parse(written(value));
}

e2e::Scenario fig2_scenario(int n_cross, sched::SchedulerKind sched) {
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched;
  return sc;
}

// ----- json::Value -------------------------------------------------------

/// Parsing `text` fails with "json: <what>" at (line, column).
void expect_parse_error(std::string_view text, const char* what,
                        std::size_t line, std::size_t column) {
  try {
    (void)Value::parse(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.what(), "json: " + std::string(what)) << text;
    EXPECT_EQ(e.line, line) << text;
    EXPECT_EQ(e.column, column) << text;
  }
}

TEST(Json, ParseAndDumpRoundTripPreservingOrder) {
  const std::string text =
      R"({"z":1,"a":[true,false,null,"x\n\"y\""],"nested":{"k":-2.5}})";
  const Value v = Value::parse(text);
  EXPECT_EQ(v.dump(), text);  // insertion order preserved, compact form
  EXPECT_EQ(v.at("a").size(), 4u);
  EXPECT_TRUE(v.at("a").at(2).is_null());
  EXPECT_EQ(v.at("a").at(3).as_string(), "x\n\"y\"");
  EXPECT_EQ(v.at("nested").at("k").as_number(), -2.5);

  // Strings are copied run by run: escapes right at the start and end of
  // a run, a multibyte tail, and a run far longer than any buffer.
  const std::string edges = R"(["a\"b\\cé","\"x\\","\\"])";
  EXPECT_EQ(Value::parse(edges).dump(), edges);
  EXPECT_EQ(Value::parse(edges).at(std::size_t{0}).as_string(),
            "a\"b\\c\xc3\xa9");
  const std::string long_run(5000, 'x');
  const std::string long_text = "[\"" + long_run + "\\n" + long_run + "\"]";
  const Value long_value = Value::parse(long_text);
  EXPECT_EQ(long_value.at(std::size_t{0}).as_string(),
            long_run + "\n" + long_run);
  EXPECT_EQ(long_value.dump(), long_text);

  // Accepted documents and their canonical compact form (numbers in
  // their shortest round-trip spelling, fixed when no longer than the
  // exponent form), captured from the recursive-descent parser this
  // reader replaced: leading zeros,
  // trailing dots and exponent forms parse like from_chars, lone
  // surrogates become U+FFFD, and a duplicate key keeps its first
  // position with the last value.
  struct Accepted {
    std::string_view text;
    const char* dump;
  };
  const Accepted accepted[] = {
      {"{\n \"a\": [1, \"x\\u00e9\", true,\n null, {\"b\": -2.5e3}],\n \"c\": false\n}"sv, "{\"a\":[1,\"x\303\251\",true,null,{\"b\":-2500}],\"c\":false}"},
      {"\"\\/\\b\\f\\n\\r\\t\\\"\\\\\""sv, "\"/\\b\\f\\n\\r\\t\\\"\\\\\""},
      {"\"\\uD800\""sv, "\"\357\277\275\""},
      {"\"\\uDC00\""sv, "\"\357\277\275\""},
      {"\"\\uD800\\u0041\""sv, "\"\357\277\275A\""},
      {"\"\\uD83D\\uDE00\""sv, "\"\360\237\230\200\""},
      {"\"\\uDBFF\\uDFFF\""sv, "\"\364\217\277\277\""},
      {"\"\\uD800\\uD800\\uDC00\""sv, "\"\357\277\275\360\220\200\200\""},
      {"\"\\uD800x\""sv, "\"\357\277\275x\""},
      {"01"sv, "1"},
      {"-01"sv, "-1"},
      {"1."sv, "1"},
      {"-0"sv, "-0"},
      {"0"sv, "0"},
      {"1E2"sv, "100"},
      {"1.5e+2"sv, "150"},
      {"123456789012345"sv, "123456789012345"},
      {"1234567890123456"sv, "1234567890123456"},
      {"12345678901234567890"sv, "12345678901234567168"},
      {"123456789012345678901234567890"sv, "1.2345678901234568e+29"},
      {"-18446744073709551617"sv, "-18446744073709551616"},
      {"9007199254740993"sv, "9007199254740992"},
      {"-123456789012345"sv, "-123456789012345"},
      {"0.1"sv, "0.1"},
      {"1e308"sv, "1e+308"},
      {"2.2250738585072014e-308"sv, "2.2250738585072014e-308"},
      {"4.9e-324"sv, "5e-324"},
      {"{\"a\":01}"sv, "{\"a\":1}"},
      {"00"sv, "0"},
      {"-0.0"sv, "-0"},
      {"1e0001"sv, "10"},
      {"\"\177\""sv, "\"\177\""},
      {"{\r\n\"a\":1\r\n}"sv, "{\"a\":1}"},
      {"true"sv, "true"},
      {"false"sv, "false"},
      {"null"sv, "null"},
      {"[]"sv, "[]"},
      {"{}"sv, "{}"},
      {"{\"a\":1,\"b\":2,\"a\":3}"sv, "{\"a\":3,\"b\":2}"},
      {"{\"a\":{\"x\":1},\"b\":2,\"a\":[3]}"sv, "{\"a\":[3],\"b\":2}"},
      {"{\"\":1,\"\":2}"sv, "{\"\":2}"},
      {"[{\"a\":1,\"a\":2}]"sv, "[{\"a\":2}]"},
      {" { \"k\" : [ 1 , 2 ] } "sv, "{\"k\":[1,2]}"},
      {"{\"a\\u0000b\":1}"sv, "{\"a\\u0000b\":1}"},
      {"\"\303\203\302\251\303\242\302\202\302\254\""sv, "\"\303\203\302\251\303\242\302\202\302\254\""},
      {"\"\303\277\303\276\""sv, "\"\303\277\303\276\""},
  };
  for (const Accepted& c : accepted) {
    EXPECT_EQ(Value::parse(c.text).dump(), c.dump) << c.text;
  }
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const Value v = Value::parse(R"(["Aé€😀"])");
  EXPECT_EQ(v.at(std::size_t{0}).as_string(),
            "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    (void)Value::parse("{\n  \"a\": 1,\n  12\n}");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_EQ(e.line, 3u);
    EXPECT_GT(e.column, 0u);
  }
  // Errors inside a long string point just past the byte that ended
  // the run, pinned literally: a raw control byte at column 5009 of
  // line 2 reports 5010; input ending after a 6000-byte run reports 6009.
  const std::string run(5000, 'a');
  try {
    (void)Value::parse("{\n  \"k\": \"" + run + "\x01" "b\"}");
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_STREQ(e.what(), "json: raw control character in string");
    EXPECT_EQ(e.line, 2u);
    EXPECT_EQ(e.column, 5010u);
  }
  try {
    (void)Value::parse("{\n  \"k\": \"" + run + std::string(1000, 'b'));
    FAIL() << "expected ParseError";
  } catch (const json::ParseError& e) {
    EXPECT_STREQ(e.what(), "json: unterminated string");
    EXPECT_EQ(e.line, 2u);
    EXPECT_EQ(e.column, 6009u);
  }
  EXPECT_THROW((void)Value::parse("{} trailing"), json::ParseError);
  EXPECT_THROW((void)Value::parse(""), json::ParseError);
  EXPECT_THROW((void)Value::parse("{\"a\":}"), json::ParseError);

  // The error contract, captured from the recursive-descent parser this
  // reader replaced: message, line and column of every malformed input.
  // First every proper prefix of one multi-line document, so truncation
  // lands on each structural position...
  const std::string doc =
      "{\n \"a\": [1, \"x\\u00e9\", true,\n null, {\"b\": -2.5e3}],\n \"c\": false\n}";
  struct Where {
    const char* what;
    std::size_t line;
    std::size_t column;
  };
  const Where truncated[] = {
      {"unexpected end of input", 1, 1},
      {"expected string key in object", 1, 2},
      {"expected string key in object", 2, 1},
      {"expected string key in object", 2, 2},
      {"unterminated string", 2, 3},
      {"unterminated string", 2, 4},
      {"expected ':' after object key", 2, 5},
      {"unexpected end of input", 2, 6},
      {"unexpected end of input", 2, 7},
      {"unexpected end of input", 2, 8},
      {"unterminated array", 2, 9},
      {"unexpected end of input", 2, 10},
      {"unexpected end of input", 2, 11},
      {"unterminated string", 2, 12},
      {"unterminated string", 2, 13},
      {"unterminated escape", 2, 14},
      {"unterminated \\u escape", 2, 15},
      {"unterminated \\u escape", 2, 16},
      {"unterminated \\u escape", 2, 17},
      {"unterminated \\u escape", 2, 18},
      {"unterminated string", 2, 19},
      {"unterminated array", 2, 20},
      {"unexpected end of input", 2, 21},
      {"unexpected end of input", 2, 22},
      {"invalid literal (expected 'true')", 2, 23},
      {"invalid literal (expected 'true')", 2, 24},
      {"invalid literal (expected 'true')", 2, 25},
      {"unterminated array", 2, 26},
      {"unexpected end of input", 2, 27},
      {"unexpected end of input", 3, 1},
      {"unexpected end of input", 3, 2},
      {"invalid literal (expected 'null')", 3, 3},
      {"invalid literal (expected 'null')", 3, 4},
      {"invalid literal (expected 'null')", 3, 5},
      {"unterminated array", 3, 6},
      {"unexpected end of input", 3, 7},
      {"unexpected end of input", 3, 8},
      {"expected string key in object", 3, 9},
      {"unterminated string", 3, 10},
      {"unterminated string", 3, 11},
      {"expected ':' after object key", 3, 12},
      {"unexpected end of input", 3, 13},
      {"unexpected end of input", 3, 14},
      {"invalid number", 3, 15},
      {"unterminated object", 3, 16},
      {"unterminated object", 3, 17},
      {"unterminated object", 3, 18},
      {"invalid number", 3, 19},
      {"unterminated object", 3, 20},
      {"unterminated array", 3, 21},
      {"unterminated object", 3, 22},
      {"expected string key in object", 3, 23},
      {"expected string key in object", 4, 1},
      {"expected string key in object", 4, 2},
      {"unterminated string", 4, 3},
      {"unterminated string", 4, 4},
      {"expected ':' after object key", 4, 5},
      {"unexpected end of input", 4, 6},
      {"unexpected end of input", 4, 7},
      {"invalid literal (expected 'false')", 4, 8},
      {"invalid literal (expected 'false')", 4, 9},
      {"invalid literal (expected 'false')", 4, 10},
      {"invalid literal (expected 'false')", 4, 11},
      {"unterminated object", 4, 12},
      {"unterminated object", 5, 1},
  };
  ASSERT_EQ(std::size(truncated), doc.size());
  for (std::size_t n = 0; n < doc.size(); ++n) {
    expect_parse_error(doc.substr(0, n), truncated[n].what, truncated[n].line,
                       truncated[n].column);
  }
  // ...then escapes, surrogates, numbers, trailing bytes, raw controls,
  // CRLF line ends, literals and container punctuation.
  struct Malformed {
    std::string_view text;
    const char* what;
    std::size_t line;
    std::size_t column;
  };
  const Malformed malformed[] = {
      {" "sv, "unexpected end of input", 1, 2},
      {"\r\n"sv, "unexpected end of input", 2, 1},
      {"\n\n  "sv, "unexpected end of input", 3, 3},
      {"x"sv, "invalid number", 1, 1},
      {"]"sv, "invalid number", 1, 1},
      {"}"sv, "invalid number", 1, 1},
      {":"sv, "invalid number", 1, 1},
      {"\"\\x\""sv, "invalid escape sequence", 1, 4},
      {"\"\\u12\""sv, "invalid \\u escape", 1, 7},
      {"\"\\u12G4\""sv, "invalid \\u escape", 1, 7},
      {"\"\\"sv, "unterminated escape", 1, 3},
      {"\"\\u"sv, "unterminated \\u escape", 1, 4},
      {"[\"\\q\"]"sv, "invalid escape sequence", 1, 5},
      {"\"\\\n\""sv, "invalid escape sequence", 2, 1},
      {"\"\\u00\n0\""sv, "invalid \\u escape", 2, 1},
      {"\"\\uD800\\uZZZZ\""sv, "invalid \\u escape", 1, 11},
      {"\"\\uD800\\"sv, "unterminated escape", 1, 9},
      {"\"\\uD800\\u\""sv, "invalid \\u escape", 1, 11},
      {"1e999"sv, "number out of double range", 1, 6},
      {"-1e999"sv, "number out of double range", 1, 7},
      {"1e-999"sv, "number out of double range", 1, 7},
      {"-"sv, "invalid number", 1, 2},
      {"-a"sv, "invalid number", 1, 2},
      {".5"sv, "invalid number", 1, 1},
      {"+1"sv, "invalid number", 1, 1},
      {"1e"sv, "invalid number", 1, 3},
      {"0x10"sv, "trailing characters after JSON document", 1, 2},
      {"Infinity"sv, "invalid number", 1, 1},
      {"NaN"sv, "invalid number", 1, 1},
      {"1-2"sv, "invalid number", 1, 4},
      {"1.5.3"sv, "invalid number", 1, 6},
      {"[1e999]"sv, "number out of double range", 1, 7},
      {"[-]"sv, "invalid number", 1, 3},
      {"[1 2]"sv, "expected ',' or ']' in array", 1, 5},
      {"{} x"sv, "trailing characters after JSON document", 1, 4},
      {"1 2"sv, "trailing characters after JSON document", 1, 3},
      {"[]]"sv, "trailing characters after JSON document", 1, 3},
      {"nullx"sv, "trailing characters after JSON document", 1, 5},
      {"null x"sv, "trailing characters after JSON document", 1, 6},
      {"{}\n\n}"sv, "trailing characters after JSON document", 3, 1},
      {"\"a\"b"sv, "trailing characters after JSON document", 1, 4},
      {"\"a\tb\""sv, "raw control character in string", 1, 4},
      {"\"a\nb\""sv, "raw control character in string", 2, 1},
      {"\"a\000b\""sv, "raw control character in string", 1, 4},
      {"[\"\001\"]"sv, "raw control character in string", 1, 4},
      {"\"\037\""sv, "raw control character in string", 1, 3},
      {"{\r\n\"a\":\r\n}"sv, "invalid number", 3, 1},
      {"[1,\r\n2,\r\n]"sv, "invalid number", 3, 1},
      {"\r\n\r\n{"sv, "expected string key in object", 3, 2},
      {"{\r\n  \"a\"\r\n}"sv, "expected ':' after object key", 3, 2},
      {"nul"sv, "invalid literal (expected 'null')", 1, 4},
      {"nulx"sv, "invalid literal (expected 'null')", 1, 5},
      {"tru\n"sv, "invalid literal (expected 'true')", 2, 1},
      {"fals"sv, "invalid literal (expected 'false')", 1, 5},
      {"truex"sv, "trailing characters after JSON document", 1, 5},
      {"n"sv, "invalid literal (expected 'null')", 1, 2},
      {"t"sv, "invalid literal (expected 'true')", 1, 2},
      {"f"sv, "invalid literal (expected 'false')", 1, 2},
      {"nULL"sv, "invalid literal (expected 'null')", 1, 3},
      {"[tru]"sv, "invalid literal (expected 'true')", 1, 6},
      {"{\"a\" 1}"sv, "expected ':' after object key", 1, 7},
      {"{\"a\":1 \"b\":2}"sv, "expected ',' or '}' in object", 1, 9},
      {"{1:2}"sv, "expected string key in object", 1, 2},
      {"{\"a\":1,}"sv, "expected string key in object", 1, 8},
      {"[1,]"sv, "invalid number", 1, 4},
      {"{\"a\""sv, "expected ':' after object key", 1, 5},
      {"{,}"sv, "expected string key in object", 1, 2},
      {"[,]"sv, "invalid number", 1, 2},
      {"{\"a\":}"sv, "invalid number", 1, 6},
      {"["sv, "unexpected end of input", 1, 2},
      {"{"sv, "expected string key in object", 1, 2},
  };
  for (const Malformed& c : malformed) {
    expect_parse_error(c.text, c.what, c.line, c.column);
  }
  // Nesting: 129 levels of containers parse, a value inside the 129th
  // does not -- at the first byte of that value's position.
  const auto nested = [](int depth, const std::string& inner) {
    return std::string(static_cast<std::size_t>(depth), '[') + inner +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(Value::parse(nested(129, "")).dump(), nested(129, ""));
  EXPECT_EQ(Value::parse(nested(128, "[]")).dump(), nested(129, ""));
  expect_parse_error(nested(130, ""), "nesting deeper than 128 levels", 1, 130);
  expect_parse_error(nested(129, "1"), "nesting deeper than 128 levels", 1, 130);
  expect_parse_error(nested(128, "[1,]"), "nesting deeper than 128 levels", 1,
                     130);
  expect_parse_error(nested(129, " \n 1"), "nesting deeper than 128 levels", 2,
                     2);
  std::string objects;
  for (int i = 0; i < 129; ++i) objects += "{\"a\":";
  expect_parse_error(objects + "1" + std::string(129, '}'),
                     "nesting deeper than 128 levels", 1, 646);
  EXPECT_NO_THROW((void)Value::parse(objects.substr(5) + "1" +
                                     std::string(128, '}')));
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const Value v = Value::parse(R"({"n":1})");
  EXPECT_THROW((void)v.at("n").as_string(), json::TypeError);
  EXPECT_THROW((void)v.at("missing"), json::TypeError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("n").items(), json::TypeError);
}

TEST(Json, DocumentNodesViewTheTextInPlace) {
  const std::string text =
      R"({"a":[1,"x",true],"s":"plain","e":"t\tab","a":{"k":null},"n":-0})";
  const json::Document doc(text);
  const json::Node root = doc.root();
  ASSERT_TRUE(root.is_object());
  // A string without escapes is a span of the text; one with an escape
  // is unescaped.
  const std::string_view plain = root.at("s").as_string();
  EXPECT_EQ(plain, "plain");
  EXPECT_GE(plain.data(), text.data());
  EXPECT_LT(plain.data(), text.data() + text.size());
  EXPECT_EQ(root.at("e").as_string(), "t\tab");
  // The last of a repeated key wins, through find and lookup alike.
  EXPECT_TRUE(root.find("a").is_object());
  static constexpr std::array<std::string_view, 3> kNames = {"n", "a", "zz"};
  std::array<json::Node, kNames.size()> f{};
  root.lookup(kNames, f);
  EXPECT_TRUE(std::signbit(f[0].as_number()));
  EXPECT_TRUE(f[1].at("k").is_null());
  EXPECT_FALSE(f[2]);
  EXPECT_FALSE(root.find("zz"));
  // Elements in order; the materialized Value keeps the first position.
  const json::Document array_doc(R"([1,"x",true])");
  std::vector<std::string> seen;
  for (const json::Node element : array_doc.root().items()) {
    seen.push_back(element.dump());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"1", R"("x")", "true"}));
  EXPECT_EQ(array_doc.root().items().size(), 3u);
  EXPECT_EQ(root.to_value().dump(),
            R"({"a":{"k":null},"s":"plain","e":"t\tab","n":-0})");
  // The typed accessors throw Value's TypeErrors.
  const Value value = Value::parse(text);
  const auto message = [](const auto& read) {
    try {
      read();
    } catch (const json::TypeError& e) {
      return std::string(e.what());
    }
    return std::string("no TypeError");
  };
  EXPECT_EQ(message([&] { (void)root.at("s").as_number(); }),
            message([&] { (void)value.at("s").as_number(); }));
  EXPECT_EQ(message([&] { (void)root.at("missing"); }),
            message([&] { (void)value.at("missing"); }));
  EXPECT_EQ(message([&] { (void)root.at("n").items(); }),
            message([&] { (void)value.at("n").items(); }));
  EXPECT_EQ(message([&] { (void)root.at("n").find("k"); }),
            message([&] { (void)value.at("n").find("k"); }));
}

TEST(Json, RawTextAndEscapedStringsReadOnFirstUse) {
  const std::string text =
      "{\"q\":\"a\\\"b\", \"v\":[1, {\"k\":\"\\u00e9\\n\"}],"
      " \"o\":{\"x\":true} }  ";
  const json::Document doc(text);
  const json::Node root = doc.root();
  // raw() is the text as written: a string with its quotes and escapes,
  // a container from bracket to bracket, whitespace inside kept.
  EXPECT_EQ(root.raw(), text.substr(0, text.size() - 2));
  EXPECT_EQ(root.at("q").raw(), R"("a\"b")");
  EXPECT_EQ(root.at("v").raw(), R"([1, {"k":"\u00e9\n"}])");
  EXPECT_EQ(root.at("o").raw(), R"({"x":true})");
  EXPECT_EQ(json::Document("[]").root().raw(), "[]");
  EXPECT_THROW((void)root.at("o").at("x").raw(), json::TypeError);
  EXPECT_THROW((void)json::Document("1.5").root().raw(), json::TypeError);
  // Escaped strings are unescaped when read, each once, and an earlier
  // one's bytes stay put while a later one is unescaped.
  json::Node::Elements::iterator second = root.at("v").items().begin();
  const json::Node k = *++second;
  const std::string_view q = root.at("q").as_string();
  EXPECT_EQ(q, "a\"b");
  EXPECT_EQ(k.at("k").as_string(), "\xc3\xa9\n");
  EXPECT_EQ(q, "a\"b");
  EXPECT_EQ(root.at("q").as_string().data(), q.data());
  // A malformed escape is still refused while reading, where it is.
  expect_parse_error(R"({"q":"a\x"})", "invalid escape sequence", 1, 10);
  expect_parse_error(R"(["\u12G4"])", "invalid \\u escape", 1, 8);
}

TEST(Json, QuotedEqualsMatchesTheWriterByteForByte) {
  const std::string strings[] = {
      "",       "plain",     "q\"uote",   "back\\slash", "tab\there",
      "\x01\x1f", "caf\xc3\xa9", "/slash/", R"({"kind":"solve"})"};
  for (const std::string& s : strings) {
    std::string token;
    json::append_quoted(token, s);
    EXPECT_TRUE(json::quoted_equals(token, s)) << token;
    // Any other token for the same string, or another string, is not.
    EXPECT_FALSE(json::quoted_equals(token + " ", s)) << token;
    EXPECT_FALSE(json::quoted_equals(token.substr(1), s)) << token;
    EXPECT_FALSE(json::quoted_equals(token, s + "x")) << token;
    if (!s.empty()) {
      EXPECT_FALSE(json::quoted_equals(token, s.substr(1))) << token;
    }
  }
  // The same string escaped another way is not the writer's token.
  EXPECT_FALSE(json::quoted_equals(R"("q\u0022uote")", "q\"uote"));
  EXPECT_FALSE(json::quoted_equals(R"("\/slash\/")", "/slash/"));
  EXPECT_FALSE(json::quoted_equals("\"", ""));
}

TEST(Json, NodeDumpWritesWhatTheMaterializedValueWrites) {
  const char* const texts[] = {
      R"({"a":1,"b":[true,null,"x\ty"],"a":{"c":2,"c":3},"d":-0})",
      R"([ 1.50, 1e2, "\u00e9", {}, [] ])",
      R"("request-0123456789abcdef")",
      R"({"k":1,"k":2,"j":3,"k":4})",
      "7",
  };
  for (const char* text : texts) {
    const json::Document doc(text);
    EXPECT_EQ(doc.root().dump(), doc.root().to_value().dump()) << text;
  }
  EXPECT_EQ(json::Document(R"({"k":1,"j":3,"k":4})").root().dump(),
            R"({"k":4,"j":3})");
}

TEST(Json, NumbersRoundTripBitExactly) {
  const double cases[] = {0.0,         1.0 / 3.0, 0.1,
                          1e-300,      1e300,     -2.2250738585072014e-308,
                          6.02214e23,  -1.5,      123456789.123456789,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min()};
  for (const double d : cases) {
    const Value v = Value::parse(Value::number(d).dump());
    EXPECT_EQ(v.as_number(), d) << Value::number(d).dump();
    // Bitwise, not just ==, so -0.0 vs 0.0 style slips would show up.
    const double back = v.as_number();
    EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0)
        << Value::number(d).dump();
  }
  // Integral doubles print as integers (stable canonical form).
  EXPECT_EQ(Value::number(100.0).dump(), "100");
  EXPECT_EQ(Value::number(-3.0).dump(), "-3");
}

/// `text` parsed back by std::from_chars (the whole text, or a failure).
bool parses_back_to(std::string_view text, double v) {
  double back = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), back);
  return ec == std::errc() && ptr == text.data() + text.size() &&
         std::memcmp(&back, &v, sizeof v) == 0;
}

/// The significant digits of a decimal text: leading zeros, the sign,
/// the point, the exponent and trailing zeros left out.
int significant_digits(std::string_view text) {
  const std::string_view mantissa = text.substr(0, text.find('e'));
  std::string digits;
  for (const char c : mantissa) {
    if (c >= '0' && c <= '9' && !(digits.empty() && c == '0')) digits += c;
  }
  while (!digits.empty() && digits.back() == '0') digits.pop_back();
  return static_cast<int>(digits.size());
}

/// True when `%.{digits-1}e` -- `digits` significant digits -- parses
/// back to v.
bool round_trips_with(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", digits - 1, v);
  return parses_back_to(buf, v);
}

TEST(Json, NumberEmissionIsShortestRoundTrip) {
  // The writer emits std::to_chars' shortest round-trip text: the fewest
  // characters that parse back to the same bits, fixed form when it is
  // no longer than the exponent form.
  const struct {
    double v;
    const char* text;
  } spots[] = {
      {-0.0, "-0"},
      {100.0, "100"},
      {1e5, "1e+05"},
      {0.989, "0.989"},
      {1e-9, "1e-09"},
      {9007199254740992.0, "9007199254740992"},
      {std::numeric_limits<double>::max(), "1.7976931348623157e+308"},
      {std::numeric_limits<double>::denorm_min(), "5e-324"},
  };
  for (const auto& spot : spots) {
    EXPECT_EQ(Value::number(spot.v).dump(), spot.text);
  }

  constexpr double kTwo53 = 9007199254740992.0;
  std::vector<double> cases = {
      0.0,
      -0.0,
      kTwo53 - 1.0,
      -(kTwo53 - 1.0),
      kTwo53,
      kTwo53 + 1.0,  // rounds to 2^53
      kTwo53 + 2.0,
      -kTwo53,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.1,
      1e21,
      1e22,
      1e-5,
      1e-4,
      1e16,
      1e17,
      123456789.123456789,
  };
  for (int i = -2000; i <= 2000; ++i) cases.push_back(i);
  for (int e = 0; e <= 60; ++e) {
    cases.push_back(std::ldexp(1.0, e));
    cases.push_back(std::ldexp(1.0, e) - 1.0);
  }
  std::mt19937_64 rng(20101);
  for (int i = 0; i < 100'000; ++i) {  // integers of every magnitude < 2^53
    const auto magnitude = static_cast<double>(rng() >> (11 + i % 53));
    cases.push_back(i % 2 == 0 ? magnitude : -magnitude);
  }
  while (cases.size() < 1'200'000) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) cases.push_back(d);
  }
  std::size_t failures = 0;
  for (const double d : cases) {
    const std::string text = Value::number(d).dump();
    // Check 1: the text gives back the same bits.
    if (!parses_back_to(text, d)) {
      if (++failures <= 5) {
        ADD_FAILURE() << std::hexfloat << d << ": " << text
                      << " does not parse back";
      }
      continue;
    }
    // Check 2: no text with fewer significant digits round-trips.  A
    // fixed-form integer of 2^53 or more spells its exact value, so it
    // may carry more digits than needed; it must then be no longer than
    // the exponent form of the fewest digits that round-trip.
    const int digits = significant_digits(text);
    const bool exact_integer = text.find_first_of(".e") == std::string::npos &&
                               std::fabs(d) >= kTwo53;
    bool shortest = true;
    if (exact_integer) {
      int fewest = 1;
      while (!round_trips_with(d, fewest)) ++fewest;
      char exponent_form[64];
      std::snprintf(exponent_form, sizeof exponent_form, "%.*e", fewest - 1,
                    d);
      shortest = text.size() <= std::strlen(exponent_form);
    } else if (digits > 1) {
      shortest = !round_trips_with(d, digits - 1);
    }
    if (!shortest && ++failures <= 5) {
      ADD_FAILURE() << std::hexfloat << d << ": " << text
                    << " is not the shortest round-trip text";
    }
  }
  EXPECT_EQ(failures, 0u);
}

TEST(Json, WriterRejectsNonFiniteNumbers) {
  EXPECT_THROW((void)Value::number(kInf).dump(), std::invalid_argument);
  EXPECT_THROW((void)Value::number(std::nan("")).dump(),
               std::invalid_argument);
}

// ----- codec doubles -----------------------------------------------------

TEST(Codec, NonFiniteDoublesEncodeAsStrings) {
  EXPECT_EQ(encode_double(kInf).dump(), "\"inf\"");
  EXPECT_EQ(encode_double(-kInf).dump(), "\"-inf\"");
  EXPECT_EQ(encode_double(std::nan("")).dump(), "\"nan\"");
  EXPECT_EQ(decode_double(ReadBack(encode_double(kInf))), kInf);
  EXPECT_EQ(decode_double(ReadBack(encode_double(-kInf))), -kInf);
  EXPECT_TRUE(std::isnan(decode_double(ReadBack(encode_double(std::nan(""))))));
}

TEST(Codec, DecodeDoubleAcceptsHexfloatStrings) {
  // The PR 2 golden notation: hand-written documents can pin exact bits.
  EXPECT_EQ(decode_double(ReadBack(Value::string("0x1.6126458d64984p+4"))),
            0x1.6126458d64984p+4);
  EXPECT_EQ(decode_double(ReadBack(Value::string("-0x1p3"))), -8.0);
  EXPECT_EQ(decode_double(ReadBack(Value::string("0x.8p1"))), 1.0);
  EXPECT_THROW((void)decode_double(ReadBack(Value::string("12 monkeys"))), CodecError);
  // The only sign a hexfloat takes is the one before its prefix.
  EXPECT_THROW((void)decode_double(ReadBack(Value::string("0x-1p3"))), CodecError);
  EXPECT_THROW((void)decode_double(ReadBack(Value::string("-0x-1p3"))), CodecError);
  EXPECT_THROW((void)decode_double(ReadBack(Value::string("0x+1p3"))), CodecError);
  EXPECT_THROW((void)decode_double(ReadBack(Value::string("0xinf"))), CodecError);
  EXPECT_THROW((void)decode_double(ReadBack(Value::boolean(true))), CodecError);
}

// ----- codec value types -------------------------------------------------

TEST(Codec, ScenarioRoundTripsExactly) {
  e2e::Scenario sc = fig2_scenario(268, sched::SchedulerKind::kEdf);
  sc.scheduler.set_edf_factors(sched::EdfFactors{1.0, 10.0});
  sc.capacity = 155.52;  // an OC-3, not representable in few digits
  const e2e::Scenario back = decode_scenario(ReadBack(encode_scenario(sc)));
  EXPECT_EQ(back.capacity, sc.capacity);
  EXPECT_EQ(back.hops, sc.hops);
  EXPECT_EQ(back.source.peak_kb(), sc.source.peak_kb());
  EXPECT_EQ(back.source.p11(), sc.source.p11());
  EXPECT_EQ(back.source.p22(), sc.source.p22());
  EXPECT_EQ(back.n_through, sc.n_through);
  EXPECT_EQ(back.n_cross, sc.n_cross);
  EXPECT_EQ(back.epsilon, sc.epsilon);
  EXPECT_EQ(back.scheduler, sc.scheduler);
  EXPECT_EQ(back.scheduler.edf_factors(), sc.scheduler.edf_factors());
  // Canonical dump is byte-stable: encode twice, identical bytes.
  EXPECT_EQ(encode_scenario(sc).dump(), encode_scenario(back).dump());
}

TEST(Codec, ScenarioDecodeRejectsBadDocuments) {
  // An unknown scheduler name is specifically a SchemaError -- another
  // producer's vocabulary, which the result cache classifies kStale --
  // not a generic decode failure.
  Value v = encode_scenario(fig2_scenario(100, sched::SchedulerKind::kFifo));
  v.set("scheduler", Value::string("round-robin"));
  EXPECT_THROW((void)decode_scenario(ReadBack(v)), SchemaError);
  Value obj = encode_scenario(fig2_scenario(100, sched::SchedulerKind::kFifo));
  Value bad_sched = Value::object();
  bad_sched.set("kind", Value::string("wfq"));
  obj.set("scheduler", std::move(bad_sched));
  EXPECT_THROW((void)decode_scenario(ReadBack(obj)), SchemaError);
  EXPECT_THROW((void)decode_scenario(ReadBack(Value::number(3.0))), CodecError);
  Value hops = encode_scenario(fig2_scenario(100, sched::SchedulerKind::kFifo));
  hops.set("hops", Value::number(2.5));
  EXPECT_THROW((void)decode_scenario(ReadBack(hops)), CodecError);
}

TEST(Codec, SchedulerSpecsRoundTripInAllForms) {
  // The full-object form round-trips every spec, including fixed-Delta
  // offsets (finite and infinite), EDF factors, and curve-backed class
  // weights.
  for (const sched::SchedulerSpec& spec :
       {sched::SchedulerSpec::fifo(), sched::SchedulerSpec::bmux(),
        sched::SchedulerSpec::sp_high(), sched::SchedulerSpec::edf(2.0, 5.0),
        sched::SchedulerSpec::fixed_delta(2.5),
        sched::SchedulerSpec::fixed_delta(kInf),
        sched::SchedulerSpec::fixed_delta(-kInf),
        sched::SchedulerSpec::gps(3.0, 1.0),
        sched::SchedulerSpec::drr(2.0, 0.5),
        sched::SchedulerSpec::gps(sched::ClassWeights::of({1.0, 2.0, 4.0})),
        sched::SchedulerSpec::sced()}) {
    const sched::SchedulerSpec back = decode_scheduler(ReadBack(written(spec)));
    EXPECT_EQ(back, spec) << sched::to_string(spec);
  }
  // The codec also accepts the compact string form (bare names,
  // "delta:<value>", and weighted "gps:w,..." spellings) wherever a
  // scheduler is expected.
  sched::SchedulerSpec s = decode_scheduler(ReadBack(Value::string("delta:2.5")));
  EXPECT_EQ(s, sched::SchedulerSpec::fixed_delta(2.5));
  EXPECT_EQ(decode_scheduler(ReadBack(Value::string("bmux"))),
            sched::SchedulerSpec::bmux());
  EXPECT_EQ(decode_scheduler(ReadBack(Value::string("gps:3,1"))),
            sched::SchedulerSpec::gps(3.0, 1.0));
  EXPECT_EQ(decode_scheduler(ReadBack(Value::string("sced"))),
            sched::SchedulerSpec::sced());
}

TEST(Codec, SchedulerParamsFieldIsValidatedAndDefaulted) {
  // A schema-2 object (no "params") decodes to the default equal split.
  Value v2 = written_doc(sched::SchedulerSpec::gps(3.0, 1.0));
  v2.set("params", Value::null());
  EXPECT_EQ(decode_scheduler(ReadBack(v2)), sched::SchedulerSpec::gps());
  // Malformed params are CodecErrors, not silent clamps.
  Value one = written_doc(sched::SchedulerSpec::gps());
  Value short_list = Value::array();
  short_list.push_back(Value::number(1.0));
  one.set("params", std::move(short_list));
  EXPECT_THROW((void)decode_scheduler(ReadBack(one)), CodecError);
  Value neg = written_doc(sched::SchedulerSpec::gps());
  Value neg_list = Value::array();
  neg_list.push_back(Value::number(-1.0));
  neg_list.push_back(Value::number(1.0));
  neg.set("params", std::move(neg_list));
  EXPECT_THROW((void)decode_scheduler(ReadBack(neg)), CodecError);
}

TEST(Codec, DiagnosticsAndStatsRoundTrip) {
  diag::Diagnostics d;
  d.fail(diag::SolveErrorKind::kUnstable, "load 1.2 >= 1");
  d.warn(diag::SolveErrorKind::kNoConvergence, "EDF hit iteration cap");
  d.warn(diag::SolveErrorKind::kCorruptCache, "entry re-solved");
  const diag::Diagnostics back = decode_diagnostics(ReadBack(written(d)));
  EXPECT_EQ(back.error, d.error);
  EXPECT_EQ(back.message, d.message);
  ASSERT_EQ(back.warnings.size(), 2u);
  EXPECT_EQ(back.warnings[1].kind, diag::SolveErrorKind::kCorruptCache);
  EXPECT_EQ(back.warnings[1].message, "entry re-solved");

  // Only the deterministic counters reach an artifact: the process-local
  // wall-clock timings are never encoded (and decode as 0), and no
  // cache-outcome member exists -- the outcome lives in src/io.
  e2e::SolveStats stats;
  stats.optimize_evals = 123456;
  stats.eb_evals = 78;
  stats.sigma_evals = 123457;
  stats.edf_iterations = 17;
  stats.edf_converged = false;
  stats.retries = 2;
  stats.fallbacks = 1;
  stats.scan_ms = 1.25;
  stats.refine_ms = 0.75;
  stats.batched_evals = 9;
  stats.warm_start_hits = 3;
  stats.brackets_reused = 4;
  stats.profile_levels = 16;
  stats.profile_chain_hits = 15;
  const Value sdoc = written_doc(stats);
  for (const char* absent : {"scan_ms", "refine_ms", "cache_hits",
                             "cache_misses", "cache_stale"}) {
    EXPECT_EQ(sdoc.find(absent), nullptr) << absent;
  }
  const e2e::SolveStats sback = decode_solve_stats(ReadBack(sdoc));
  EXPECT_EQ(sback.scan_ms, 0.0);
  EXPECT_EQ(sback.refine_ms, 0.0);
  EXPECT_EQ(sback.optimize_evals, stats.optimize_evals);
  EXPECT_EQ(sback.eb_evals, stats.eb_evals);
  EXPECT_EQ(sback.sigma_evals, stats.sigma_evals);
  EXPECT_EQ(sback.edf_iterations, stats.edf_iterations);
  EXPECT_EQ(sback.edf_converged, false);
  EXPECT_EQ(sback.retries, 2);
  EXPECT_EQ(sback.fallbacks, stats.fallbacks);
  EXPECT_EQ(sback.batched_evals, stats.batched_evals);
  EXPECT_EQ(sback.warm_start_hits, stats.warm_start_hits);
  EXPECT_EQ(sback.brackets_reused, stats.brackets_reused);
  EXPECT_EQ(sback.profile_levels, stats.profile_levels);
  EXPECT_EQ(sback.profile_chain_hits, stats.profile_chain_hits);
  EXPECT_EQ(written(sback), written(stats));
  EXPECT_EQ(sdoc.dump(), written(stats));
}

TEST(Codec, SolvedBoundResultsRoundTripBitExactly) {
  // Real Fig. 2 solves (the PR 2 golden operating points) through the
  // codec: every double must come back with identical bits, including
  // the +inf delay of an unstable point.
  const struct {
    int n_cross;
    sched::SchedulerKind sched;
  } cases[] = {{67, sched::SchedulerKind::kFifo},
               {268, sched::SchedulerKind::kBmux},
               {538, sched::SchedulerKind::kSpHigh},
               {168, sched::SchedulerKind::kEdf}};
  for (const auto& c : cases) {
    const e2e::BoundResult r =
        deltanc::Solver().solve(fig2_scenario(c.n_cross, c.sched));
    const e2e::BoundResult back = decode_bound_result(ReadBack(written(r)));
    EXPECT_EQ(back.delay_ms, r.delay_ms);
    EXPECT_EQ(back.gamma, r.gamma);
    EXPECT_EQ(back.s, r.s);
    EXPECT_EQ(back.sigma, r.sigma);
    EXPECT_EQ(back.delta, r.delta);
    EXPECT_EQ(back.stats.optimize_evals, r.stats.optimize_evals);
    EXPECT_EQ(back.diagnostics.error, r.diagnostics.error);
  }
  // Unstable: +inf delay survives the string encoding.
  const e2e::BoundResult unstable =
      deltanc::Solver().solve(fig2_scenario(800, sched::SchedulerKind::kFifo));
  ASSERT_EQ(unstable.delay_ms, kInf);
  EXPECT_EQ(decode_bound_result(ReadBack(written(unstable))).delay_ms, kInf);
}

TEST(Codec, Fig3AndFig4BoundResultsRoundTripBitExactly) {
  // Representative operating points of the Fig. 3 (traffic mix at
  // constant U = 50%) and Fig. 4 (path-length scaling) grids at the
  // figures' eps = 1e-9, including both EDF deadline settings and the
  // additive BMUX baseline: every solved result must survive the codec
  // with identical bits, and its re-encoding must be byte-stable.
  std::vector<e2e::Scenario> scenarios;
  const struct {
    sched::SchedulerKind sched;
    double own, cross;
  } fig3_columns[] = {{sched::SchedulerKind::kEdf, 1.0, 2.0},
                      {sched::SchedulerKind::kFifo, 1.0, 1.0},
                      {sched::SchedulerKind::kEdf, 1.0, 0.5},
                      {sched::SchedulerKind::kBmux, 1.0, 1.0}};
  for (const int mix_pct : {10, 50, 90}) {
    const double uc = 0.50 * mix_pct / 100.0;
    for (const auto& col : fig3_columns) {
      scenarios.push_back(ScenarioBuilder()
                              .hops(5)
                              .through_utilization(0.50 - uc)
                              .cross_utilization(uc)
                              .violation_probability(1e-9)
                              .scheduler(col.sched)
                              .edf_deadlines(col.own, col.cross)
                              .build());
    }
  }
  for (const int hops : {1, 10, 25}) {
    for (const sched::SchedulerKind sched :
         {sched::SchedulerKind::kEdf, sched::SchedulerKind::kFifo,
          sched::SchedulerKind::kBmux}) {
      scenarios.push_back(ScenarioBuilder()
                              .hops(hops)
                              .through_utilization(0.45)
                              .cross_utilization(0.45)
                              .violation_probability(1e-9)
                              .scheduler(sched)
                              .edf_deadlines(1.0, 10.0)
                              .build());
    }
  }
  auto expect_bit_exact = [](const e2e::BoundResult& r) {
    const Value doc = written_doc(r);
    const e2e::BoundResult back = decode_bound_result(ReadBack(doc));
    EXPECT_EQ(back.delay_ms, r.delay_ms);
    EXPECT_EQ(back.gamma, r.gamma);
    EXPECT_EQ(back.s, r.s);
    EXPECT_EQ(back.sigma, r.sigma);
    EXPECT_EQ(back.delta, r.delta);
    EXPECT_EQ(written(back), written(r));
    EXPECT_EQ(doc.dump(), written(r));
  };
  for (const e2e::Scenario& sc : scenarios) {
    SCOPED_TRACE("hops=" + std::to_string(sc.hops) +
                 " n_cross=" + std::to_string(sc.n_cross));
    expect_bit_exact(deltanc::Solver().solve(sc));
  }
  // Fig. 4's fourth curve: the additive per-node baseline.
  expect_bit_exact(e2e::best_additive_bmux_bound(scenarios.back()));
}

TEST(Codec, SchemaIsRequiredAndChecked) {
  // A batch request document, as --emit-batch writes it: accepted at the
  // supported schema, rejected at any other.
  Value request = Value::object();
  request.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(0.0))
      .set("scenario",
           encode_scenario(fig2_scenario(100, sched::SchedulerKind::kFifo)))
      .set("options", encode_solve_options(SolveOptions{}));
  EXPECT_NO_THROW(require_schema(ReadBack(request)));
  request.set("schema", Value::number(999.0));
  EXPECT_THROW(require_schema(ReadBack(request)), SchemaError);
  EXPECT_THROW(require_schema(ReadBack(Value::object())), SchemaError);
  EXPECT_THROW(require_schema(ReadBack(Value::number(1.0))), SchemaError);
}

// ----- cache key ---------------------------------------------------------

TEST(Codec, CacheKeyIsStableAndFoldsSchedulerOverride) {
  const e2e::Scenario fifo = fig2_scenario(268, sched::SchedulerKind::kFifo);
  SolveOptions options;
  EXPECT_EQ(solve_cache_key(fifo, options), solve_cache_key(fifo, options));

  // Override folded in: "FIFO scenario forced to EDF" keys like the EDF
  // scenario -- they solve identically.
  e2e::Scenario edf = fifo;
  edf.scheduler = sched::SchedulerKind::kEdf;
  SolveOptions forced;
  forced.scheduler = sched::SchedulerKind::kEdf;
  EXPECT_EQ(solve_cache_key(fifo, forced), solve_cache_key(edf, options));
  EXPECT_NE(solve_cache_key(fifo, options), solve_cache_key(edf, options));

  // Method changes results, so it must fragment the cache.
  SolveOptions paper;
  paper.method = e2e::Method::kPaperK;
  EXPECT_NE(solve_cache_key(fifo, paper), solve_cache_key(fifo, options));
}

// ----- delay profiles ----------------------------------------------------

TEST(Codec, DelayProfileRoundTripsBitExactly) {
  // A hand-built profile exercising the awkward encodings: hexfloat-
  // precision doubles, an unstable +inf level, and the NaN delta of a
  // curve-backed level.  Every bit must survive.
  e2e::DelayProfile p;
  p.epsilons = {1e-3, 0x1.0c6f7a0b5ed8dp-20, 1e-9};
  e2e::BoundResult a{59.721910890531532, 1.0068520595608295,
                     0.040782701620715671, 2067.7488029628475, 0.0};
  e2e::BoundResult b{kInf, 0.0, 0.0, 0.0, -kInf};
  b.diagnostics.fail(diag::SolveErrorKind::kUnstable, "load >= 1");
  e2e::BoundResult c{116.42524721307376, 0.51293544089305754,
                     0.040588408589369088, 4284.7910003396446,
                     std::numeric_limits<double>::quiet_NaN()};
  p.levels = {a, b, c};
  p.stats.optimize_evals = 23624;
  p.stats.profile_levels = 3;
  p.stats.profile_chain_hits = 2;

  const e2e::DelayProfile back = decode_delay_profile(ReadBack(written(p)));
  ASSERT_EQ(back.epsilons.size(), 3u);
  ASSERT_EQ(back.levels.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.epsilons[i], p.epsilons[i]);
  }
  EXPECT_EQ(back.levels[0].delay_ms, a.delay_ms);
  EXPECT_EQ(back.levels[0].sigma, a.sigma);
  EXPECT_EQ(back.levels[1].delay_ms, kInf);
  EXPECT_EQ(back.levels[1].delta, -kInf);
  EXPECT_EQ(back.levels[1].diagnostics.error, diag::SolveErrorKind::kUnstable);
  EXPECT_EQ(back.levels[2].gamma, c.gamma);
  EXPECT_TRUE(std::isnan(back.levels[2].delta));
  EXPECT_EQ(back.stats.optimize_evals, 23624);
  EXPECT_EQ(back.stats.profile_levels, 3);
  EXPECT_EQ(back.stats.profile_chain_hits, 2);

  // Canonical dumps are byte-stable (the cache hashes them).
  EXPECT_EQ(written(p), written(back));
}

TEST(Codec, DelayProfileDecodeRejectsMalformedDocuments) {
  e2e::DelayProfile p;
  p.epsilons = {1e-3, 1e-6};
  p.levels.resize(2);
  Value doc = written_doc(p);
  // A grid/levels length mismatch is corruption, not a valid profile.
  Value grid = doc.at("epsilons");
  grid.push_back(encode_double(1e-9));
  doc.set("epsilons", std::move(grid));
  EXPECT_THROW((void)decode_delay_profile(ReadBack(doc)), CodecError);
  EXPECT_THROW((void)decode_delay_profile(ReadBack(Value::number(1.0))), CodecError);
}

TEST(Codec, ProfileCacheKeyIsKindTaggedAndEpsilonPinned) {
  const e2e::Scenario sc = fig2_scenario(268, sched::SchedulerKind::kFifo);
  const std::vector<double> grid = {1e-3, 1e-6, 1e-9};
  SolveOptions options;
  const std::string key = profile_cache_key(sc, grid, options);
  // Kind-tagged: shares no keyspace with scalar solves of any epsilon.
  EXPECT_NE(key.find("\"kind\":\"profile\""), std::string::npos);
  EXPECT_NE(key, solve_cache_key(sc, options));
  // Pinned: the scenario's own scalar epsilon is not a profile input,
  // so it must not fragment the profile keyspace.
  e2e::Scenario other_eps = sc;
  other_eps.epsilon = 1e-12;
  EXPECT_EQ(profile_cache_key(other_eps, grid, options), key);
  // The grid itself is the identity.
  const std::vector<double> deeper = {1e-3, 1e-6, 1e-12};
  EXPECT_NE(profile_cache_key(sc, deeper, options), key);
}

TEST(Codec, SolveOptionsRoundTrip) {
  SolveOptions options;
  options.method = e2e::Method::kPaperK;
  options.scheduler = sched::SchedulerKind::kBmux;
  options.delta = -kInf;
  options.warm_start = e2e::WarmStart::kWarm;
  const SolveOptions back =
      decode_solve_options(ReadBack(encode_solve_options(options)));
  EXPECT_EQ(back.method, e2e::Method::kPaperK);
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(*back.scheduler, sched::SchedulerKind::kBmux);
  ASSERT_TRUE(back.delta.has_value());
  EXPECT_EQ(*back.delta, -kInf);
  EXPECT_EQ(back.warm_start, e2e::WarmStart::kWarm);

  // Defaults survive an empty options object (batch requests may omit
  // everything).
  const SolveOptions defaults = decode_solve_options(ReadBack(Value::object()));
  EXPECT_EQ(defaults.method, e2e::Method::kExactOpt);
  EXPECT_FALSE(defaults.scheduler.has_value());
  EXPECT_FALSE(defaults.delta.has_value());
  EXPECT_EQ(defaults.warm_start, e2e::WarmStart::kCold);
}

}  // namespace
}  // namespace deltanc::io
