// The JSONL batch service: ordered responses, cache integration
// (hit/stale/corrupt outcomes surfaced per response and in the
// summary), and graceful handling of malformed request lines.
#include "e2e/solver.h"
#include "io/batch.h"
#include "read_back.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

namespace deltanc::io {
namespace {

using json::Value;
using testing::ReadBack;

e2e::Scenario small_scenario(int n_cross) {
  e2e::Scenario sc;
  sc.hops = 3;
  sc.n_through = 80;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched::SchedulerKind::kFifo;
  return sc;
}

std::string request_line(const e2e::Scenario& sc, int id) {
  Value req = Value::object();
  req.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(id))
      .set("scenario", encode_scenario(sc));
  return req.dump();
}

std::string profile_request_line(const e2e::Scenario& sc, int id,
                                 const std::vector<double>& epsilons) {
  Value eps = Value::array();
  for (double e : epsilons) eps.push_back(encode_double(e));
  Value req = Value::object();
  req.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(id))
      .set("scenario", encode_scenario(sc))
      .set("epsilons", std::move(eps));
  return req.dump();
}

std::vector<Value> parse_responses(const std::string& text) {
  std::vector<Value> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) out.push_back(Value::parse(line));
  }
  return out;
}

std::filesystem::path fresh_cache_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Batch, ResponsesArriveInInputOrderAndMatchDirectSolves) {
  std::stringstream in;
  in << request_line(small_scenario(60), 0) << "\n";
  in << "\n";  // blank lines are skipped, not answered
  in << request_line(small_scenario(40), 1) << "\n";
  std::ostringstream out;

  BatchOptions options;
  options.threads = 2;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.requests, 2);
  EXPECT_EQ(summary.responses, 2);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.cached, 0);
  EXPECT_EQ(summary.parse_errors, 0);
  EXPECT_EQ(summary.failed, 0);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  const int n_cross[] = {60, 40};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(responses[i].at("id").as_number(), static_cast<double>(i));
    EXPECT_TRUE(responses[i].at("ok").as_bool());
    EXPECT_EQ(responses[i].find("cache"), nullptr);  // no cache attached
    const e2e::BoundResult direct = deltanc::Solver().solve(small_scenario(n_cross[i]));
    const e2e::BoundResult got =
        decode_bound_result(ReadBack(responses[i].at("result")));
    EXPECT_EQ(got.delay_ms, direct.delay_ms);
    EXPECT_EQ(got.gamma, direct.gamma);
    EXPECT_EQ(got.s, direct.s);
  }
}

TEST(Batch, MalformedLinesAnswerInPlaceWithoutAbortingTheBatch) {
  std::stringstream in;
  in << request_line(small_scenario(60), 0) << "\n";
  in << "{\"schema\":1, not json\n";
  in << "{\"schema\":99,\"scenario\":{}}\n";  // wrong schema
  in << request_line(small_scenario(40), 3) << "\n";
  std::ostringstream out;

  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 4);
  EXPECT_EQ(summary.parse_errors, 2);
  EXPECT_EQ(summary.solved, 2);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_FALSE(responses[2].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("error").as_string().empty());
  EXPECT_TRUE(responses[3].at("ok").as_bool());
  EXPECT_EQ(responses[3].at("id").as_number(), 3.0);
}

// The scenario the pinned bad-request table edits (hand-written form:
// scheduler as a name string).
const std::string kScenario =
    R"({"capacity":100,"hops":3,"source":{"peak_kb":1.5,"p11":0.989,)"
    R"("p22":0.9},"n_through":80,"n_cross":50,"epsilon":1e-6,)"
    R"("scheduler":"fifo"})";

/// kScenario with its one occurrence of `from` replaced by `to`.
std::string scenario_with(const std::string& from, const std::string& to) {
  std::string sc = kScenario;
  const std::size_t at = sc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) sc.replace(at, from.size(), to);
  return sc;
}

TEST(Batch, BadRequestLinesAnswerPinnedErrorBytes) {
  // Every way a request line can fail to parse or decode, and the exact
  // error response it gets, captured from the DOM-based request parser
  // the flat reader replaced: which check fires first, its message,
  // and the echoed id (whitespace and escapes canonicalized, a
  // duplicate key keeping its first position with its last value, and
  // null when the id could not be read).
  struct Case {
    std::string line;
    std::string response;
  };
  const Case cases[] = {
      {R"({"schema":7,"id":7,)",
       R"({"schema":7,"id":null,"ok":false,"error":"json: expected string key in object"})"},
      {R"(not json)",
       "{\"schema\":7,\"id\":null,\"ok\":false,\"error\":\"json: invalid literal (expected 'null')\"}"},
      {R"([1])",
       R"({"schema":7,"id":null,"ok":false,"error":"json: expected object, got array"})"},
      {R"(5)",
       R"({"schema":7,"id":null,"ok":false,"error":"json: expected object, got number"})"},
      {R"("x")",
       R"({"schema":7,"id":null,"ok":false,"error":"json: expected object, got string"})"},
      {R"(null)",
       R"({"schema":7,"id":null,"ok":false,"error":"json: expected object, got null"})"},
      {R"({})",
       R"({"schema":7,"id":null,"ok":false,"error":"codec: document carries no \"schema\" field"})"},
      {R"({"a":1,"b":2,"a":3})",
       R"({"schema":7,"id":null,"ok":false,"error":"codec: document carries no \"schema\" field"})"},
      {R"({"id":{"a":1,"b":2,"a":3},"schema":5})",
       R"({"schema":7,"id":{"a":3,"b":2},"ok":false,"error":"codec: schema 5 != supported 7"})"},
      {R"({"id":1,"schema":7,"id":2})",
       R"({"schema":7,"id":2,"ok":false,"error":"json: missing key \"scenario\""})"},
      {R"({ "id" : [ 1 , "x\u0041\/" ] , "schema" : 5 })",
       R"({"schema":7,"id":[1,"xA/"],"ok":false,"error":"codec: schema 5 != supported 7"})"},
      {R"({"id":"tab\there \"q\" \u00e9\ud83d\ude00","schema":4})",
       "{\"schema\":7,\"id\":\"tab\\there \\\"q\\\" \303\251\360\237\230\200\",\"ok\":false,\"error\":\"codec: schema 4 != supported 7\"}"},
      {R"({"id":"\ud800","schema":4})",
       "{\"schema\":7,\"id\":\"\357\277\275\",\"ok\":false,\"error\":\"codec: schema 4 != supported 7\"}"},
      {R"({"id":-0,"schema":4})",
       R"({"schema":7,"id":-0,"ok":false,"error":"codec: schema 4 != supported 7"})"},
      {R"({"id":1e300,"schema":4})",
       R"({"schema":7,"id":1e+300,"ok":false,"error":"codec: schema 4 != supported 7"})"},
      {R"({"id":0.1,"schema":4})",
       R"({"schema":7,"id":0.1,"ok":false,"error":"codec: schema 4 != supported 7"})"},
      {R"({"id":true,"schema":4})",
       R"({"schema":7,"id":true,"ok":false,"error":"codec: schema 4 != supported 7"})"},
      {R"({"id":null,"schema":4})",
       R"({"schema":7,"id":null,"ok":false,"error":"codec: schema 4 != supported 7"})"},
      {R"({"id":1,"schema":"6"})",
       R"({"schema":7,"id":1,"ok":false,"error":"json: expected number, got string"})"},
      {R"({"id":1,"schema":6.5})",
       "{\"schema\":7,\"id\":1,\"ok\":false,\"error\":\"codec: schema must be an integer (got 6.5)\"}"},
      {R"({"id":1})",
       R"({"schema":7,"id":1,"ok":false,"error":"codec: document carries no \"schema\" field"})"},
      {R"({"id":1,"schema":7})",
       R"({"schema":7,"id":1,"ok":false,"error":"json: missing key \"scenario\""})"},
      {R"({"id":1,"schema":7,"scenario":5})",
       R"({"schema":7,"id":1,"ok":false,"error":"codec: scenario must be an object, got 5"})"},
      {R"({"id":1,"schema":7,"scenario":{}})",
       R"({"schema":7,"id":1,"ok":false,"error":"json: missing key \"capacity\""})"},
      {R"({"id":"\u0001\u001f\u007f","schema":7,"scenario":{"capacity":"\"\\\t"}})",
       "{\"schema\":7,\"id\":\"\\u0001\\u001f\177\",\"ok\":false,\"error\":\"codec: unparseable double \\\"\\\"\\\\\\t\\\"\"}"},
      {R"({"id":2,"schema":7,"scenario":)" + scenario_with(R"("hops":3)", R"("hops":2.5)") + R"(})",
       "{\"schema\":7,\"id\":2,\"ok\":false,\"error\":\"codec: hops must be an integer (got 2.5)\"}"},
      {R"({"id":2,"schema":7,"scenario":)" + scenario_with(R"("hops":3)", R"("hops":"3")") + R"(})",
       R"({"schema":7,"id":2,"ok":false,"error":"json: expected number, got string"})"},
      {R"({"id":3,"schema":7,"scenario":)" + scenario_with(R"("fifo")", R"("round-robin")") + R"(})",
       R"({"schema":7,"id":3,"ok":false,"error":"codec: unknown scheduler \"round-robin\""})"},
      {R"({"id":3,"schema":7,"scenario":)" + scenario_with(R"("fifo")", R"({"kind":"wfq"})") + R"(})",
       R"({"schema":7,"id":3,"ok":false,"error":"codec: unknown scheduler kind \"wfq\""})"},
      {R"({"id":3,"schema":7,"scenario":)" + scenario_with(R"("fifo")", R"({"kind":"gps","params":[1]})") + R"(})",
       "{\"schema\":7,\"id\":3,\"ok\":false,\"error\":\"codec: scheduler params need 2..8 entries (got 1)\"}"},
      {R"({"id":3,"schema":7,"scenario":)" + scenario_with(R"("fifo")", R"({"kind":"gps","params":[1,-1]})") + R"(})",
       "{\"schema\":7,\"id\":3,\"ok\":false,\"error\":\"codec: scheduler params must be positive finite (got -1)\"}"},
      {R"({"id":4,"schema":7,"scenario":)" + scenario_with(R"("epsilon":1e-6)", R"("epsilon":"0x-1p3")") + R"(})",
       R"({"schema":7,"id":4,"ok":false,"error":"codec: unparseable double \"0x-1p3\""})"},
      {R"({"id":4,"schema":7,"scenario":)" + scenario_with(R"("epsilon":1e-6)", R"("epsilon":"12 monkeys")") + R"(})",
       R"({"schema":7,"id":4,"ok":false,"error":"codec: unparseable double \"12 monkeys\""})"},
      {R"({"id":4,"schema":7,"scenario":)" + scenario_with(R"("epsilon":1e-6)", R"("epsilon":true)") + R"(})",
       R"({"schema":7,"id":4,"ok":false,"error":"codec: expected a number or numeric string, got true"})"},
      {R"({"id":4,"schema":7,"scenario":)" + scenario_with(R"("p11":0.989)", R"("p11":1.5)") + R"(})",
       "{\"schema\":7,\"id\":4,\"ok\":false,\"error\":\"MmooSource: p11, p22 must lie in (0,1)\"}"},
      {R"({"id":8,"schema":7,"scenario":)" + scenario_with(R"("n_cross":50)", R"("n_cross":1e10)") + R"(})",
       R"({"schema":7,"id":8,"ok":false,"error":"codec: n_cross out of int range"})"},
      {R"({"id":8,"schema":7,"scenario":)" + scenario_with(R"("n_cross":50)", R"("n_cross":50,"n_cross":"x")") + R"(})",
       R"({"schema":7,"id":8,"ok":false,"error":"json: expected number, got string"})"},
      {R"({"id":5,"schema":7,"scenario":)" + kScenario + R"(,"options":{"method":"foo"}})",
       R"({"schema":7,"id":5,"ok":false,"error":"codec: unknown method \"foo\""})"},
      {R"({"id":5,"schema":7,"scenario":)" + kScenario + R"(,"options":{"warm_start":"hot"}})",
       R"({"schema":7,"id":5,"ok":false,"error":"codec: unknown warm_start \"hot\""})"},
      {R"({"id":5,"schema":7,"scenario":)" + kScenario + R"(,"options":{"method":3}})",
       R"({"schema":7,"id":5,"ok":false,"error":"json: expected string, got number"})"},
      {R"({"id":5,"schema":7,"scenario":)" + kScenario + R"(,"options":[]})",
       R"({"schema":7,"id":5,"ok":false,"error":"json: expected object, got array"})"},
      {R"({"id":5,"schema":7,"scenario":)" + kScenario + R"(,"options":{"delta":"x"}})",
       R"({"schema":7,"id":5,"ok":false,"error":"codec: unparseable double \"x\""})"},
      {R"({"id":5,"schema":7,"scenario":)" + kScenario + R"(,"options":{"scheduler":"nope"}})",
       R"({"schema":7,"id":5,"ok":false,"error":"codec: unknown scheduler \"nope\""})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[]})",
       R"({"schema":7,"id":6,"ok":false,"error":"batch: profile request with an empty epsilons array"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[0]})",
       R"({"schema":7,"id":6,"ok":false,"error":"batch: profile epsilons must be in (0, 1), got 0"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[1]})",
       R"({"schema":7,"id":6,"ok":false,"error":"batch: profile epsilons must be in (0, 1), got 1"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[1e-3,"x"]})",
       R"({"schema":7,"id":6,"ok":false,"error":"codec: unparseable double \"x\""})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":["nan"]})",
       R"({"schema":7,"id":6,"ok":false,"error":"batch: profile epsilons must be in (0, 1), got \"nan\""})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[-0.5]})",
       R"({"schema":7,"id":6,"ok":false,"error":"batch: profile epsilons must be in (0, 1), got -0.5"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":5})",
       R"({"schema":7,"id":6,"ok":false,"error":"json: expected array, got number"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":{"a":1}})",
       R"({"schema":7,"id":6,"ok":false,"error":"json: expected array, got object"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[[1e-3]]})",
       R"({"schema":7,"id":6,"ok":false,"error":"codec: expected a number or numeric string, got [0.001]"})"},
      {R"({"id":6,"schema":7,"scenario":)" + kScenario + R"(,"epsilons":[1e-3],"epsilons":[2]})",
       R"({"schema":7,"id":6,"ok":false,"error":"batch: profile epsilons must be in (0, 1), got 2"})"},
      {R"({"id":9,"schema":7,"scenario":)" + kScenario + R"(} x)",
       R"({"schema":7,"id":null,"ok":false,"error":"json: trailing characters after JSON document"})"},
      {R"({"id":9,"schema":7,"scenario":)" + kScenario + R"(,"id":[1e999]})",
       R"({"schema":7,"id":null,"ok":false,"error":"json: number out of double range"})"},
  };
  std::string input;
  for (const Case& c : cases) input += c.line + "\n";
  std::istringstream in(input);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.parse_errors, static_cast<std::int64_t>(std::size(cases)));
  EXPECT_EQ(summary.solved, 0);
  std::istringstream lines(out.str());
  std::string line;
  for (const Case& c : cases) {
    ASSERT_TRUE(std::getline(lines, line)) << c.line;
    EXPECT_EQ(line, c.response) << c.line;
  }
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(Batch, UnknownSchedulerNameIsAnsweredInPlace) {
  // A request naming a scheduler this build does not register (another
  // producer's vocabulary -- a SchemaError out of the codec) is an
  // error *response*, never an exception out of the batch loop, and the
  // surrounding requests still solve.
  Value req = Value::object();
  req.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(1))
      .set("scenario", encode_scenario(small_scenario(50)));
  std::string bad = req.dump();
  const std::string mine = "\"fifo\"";
  const std::size_t at = bad.find(mine);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, mine.size(), "\"round-robin\"");

  std::stringstream in;
  in << request_line(small_scenario(60), 0) << "\n";
  in << bad << "\n";
  in << request_line(small_scenario(40), 2) << "\n";
  std::ostringstream out;

  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 3);
  EXPECT_EQ(summary.parse_errors, 1);
  EXPECT_EQ(summary.solved, 2);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_NE(responses[1].at("error").as_string().find("round-robin"),
            std::string::npos);
  EXPECT_TRUE(responses[2].at("ok").as_bool());
}

TEST(Batch, SecondRunAnswersFromCacheBitExactly) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_cache"));
  const std::string requests = request_line(small_scenario(60), 0) + "\n" +
                               request_line(small_scenario(40), 1) + "\n";

  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  const BatchSummary cold = run_batch(cold_in, cold_out, options);
  EXPECT_EQ(cold.solved, 2);
  EXPECT_EQ(cold.cached, 0);
  EXPECT_EQ(cold.cache_stats.misses, 2);
  EXPECT_EQ(cold.cache_stats.stores, 2);
  EXPECT_EQ(cold.cache_stats.hits, 0);

  std::stringstream warm_in(requests);
  std::ostringstream warm_out;
  const BatchSummary warm = run_batch(warm_in, warm_out, options);
  EXPECT_EQ(warm.solved, 0);
  EXPECT_EQ(warm.cached, 2);
  EXPECT_EQ(warm.cache_stats.hits, 2);
  EXPECT_EQ(warm.cache_stats.misses, 0);

  const std::vector<Value> a = parse_responses(cold_out.str());
  const std::vector<Value> b = parse_responses(warm_out.str());
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a[i].at("cache").as_string(), "miss");
    EXPECT_EQ(b[i].at("cache").as_string(), "hit");
    const e2e::BoundResult cold_r = decode_bound_result(ReadBack(a[i].at("result")));
    const e2e::BoundResult warm_r = decode_bound_result(ReadBack(b[i].at("result")));
    EXPECT_EQ(cold_r.delay_ms, warm_r.delay_ms);
    EXPECT_EQ(cold_r.gamma, warm_r.gamma);
    EXPECT_EQ(cold_r.s, warm_r.s);
    EXPECT_EQ(cold_r.sigma, warm_r.sigma);
    EXPECT_EQ(cold_r.delta, warm_r.delta);
    // Only the "cache" tag tells the two runs apart.
    EXPECT_EQ(a[i].at("result").dump(), b[i].at("result").dump());
  }
}

TEST(Batch, CorruptEntryRecoversWithWarningAndOverwrite) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_corrupt"));
  const e2e::Scenario sc = small_scenario(60);
  const std::string requests = request_line(sc, 0) + "\n";

  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  (void)run_batch(cold_in, cold_out, options);

  // Damage the entry on disk, then rerun: the batch must classify the
  // entry as corrupt, re-solve, warn, and repair the cache.
  const std::string key = solve_cache_key(sc, SolveOptions{});
  std::ofstream(cache.entry_path(key), std::ios::trunc) << "not json";

  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.cache_stats.corrupt, 1);
  EXPECT_EQ(summary.cache_stats.stores, 1);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "corrupt");
  const e2e::BoundResult r = decode_bound_result(ReadBack(responses[0].at("result")));
  ASSERT_EQ(r.diagnostics.warnings.size(), 1u);
  EXPECT_EQ(r.diagnostics.warnings[0].kind,
            diag::SolveErrorKind::kCorruptCache);

  // Third run: fully healed, answered from cache.
  std::stringstream healed_in(requests);
  std::ostringstream healed_out;
  const BatchSummary healed = run_batch(healed_in, healed_out, options);
  EXPECT_EQ(healed.cached, 1);
  EXPECT_EQ(healed.cache_stats.hits, 1);
}

/// The payload's canonical bytes, written from the decoded payload.
std::string written_payload(const Answer& answer) {
  std::string text;
  std::visit([&](const auto& p) { append_json(text, p); }, answer.payload);
  return text;
}

TEST(Batch, WireGoldenHitsAnswerTheirStoredBytes) {
  // Every request of the committed wire golden, solved, stored and hit:
  // the hit's bytes (the stored ones, vouched for by the digest) are
  // append_json of its decoded payload and of the solve, and so is the
  // response line built from them.
  std::ifstream requests(std::filesystem::path(__FILE__).parent_path() /
                         "data" / "wire_requests.jsonl");
  ASSERT_TRUE(requests.good());
  ResultCache cache(fresh_cache_dir("deltanc_batch_wire_hits"));
  std::string text;
  int hits = 0;
  while (std::getline(requests, text)) {
    ParsedRequestLine line;
    try {
      line = parse_request_line(text, e2e::Method::kExactOpt);
    } catch (const std::exception&) {
      continue;  // the golden's malformed line
    }
    const Answer solved = solve_request(Solver(line.options), line);
    EXPECT_EQ(solved.payload_json, written_payload(solved)) << text;
    if (!solved.ok) continue;  // a failed solve is never stored
    ASSERT_TRUE(try_store_answer(cache, line, solved));
    Answer hit;
    ASSERT_EQ(lookup_answer(cache, line, hit), CacheLookup::kHit) << text;
    EXPECT_EQ(hit.payload_json, written_payload(hit)) << text;
    EXPECT_EQ(hit.payload_json, solved.payload_json) << text;
    const e2e::DelayProfile* profile =
        std::get_if<e2e::DelayProfile>(&hit.payload);
    EXPECT_EQ(make_ok_response(line.id, true, CacheLookup::kHit, hit).text,
              profile != nullptr
                  ? make_ok_profile_response(line.id, true, CacheLookup::kHit,
                                             *profile)
                        .text
                  : make_ok_response(line.id, true, CacheLookup::kHit,
                                     std::get<e2e::BoundResult>(hit.payload))
                        .text)
        << text;
    ++hits;
  }
  EXPECT_EQ(hits, 10);
}

TEST(Batch, FlippedPayloadDigitIsCorruptAndResolved) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_flipped_digit"));
  const std::string requests =
      request_line(small_scenario(60), 0) + "\n" +
      profile_request_line(small_scenario(50), 1, {1e-3, 1e-6}) + "\n" +
      request_line(small_scenario(40), 2) + "\n";
  BatchOptions options;
  options.cache = &cache;
  const auto batch = [&] {
    std::stringstream in(requests);
    std::ostringstream out;
    (void)run_batch(in, out, options);
    std::vector<std::string> lines;
    std::istringstream text(out.str());
    for (std::string line; std::getline(text, line);) lines.push_back(line);
    return lines;
  };
  (void)batch();
  const std::vector<std::string> warm = batch();
  ASSERT_EQ(warm.size(), 3u);

  // One digit of the profile's payload, flipped on disk: the entry
  // still parses and decodes, so only the digest can tell.
  const std::filesystem::path path = cache.entry_path(
      parse_request_line(
          profile_request_line(small_scenario(50), 1, {1e-3, 1e-6}),
          e2e::Method::kExactOpt)
          .key);
  std::string entry;
  {
    std::ifstream in(path, std::ios::binary);
    entry.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t digit =
      entry.find_first_of("123456789", entry.find("\"delay_ms\":"));
  ASSERT_NE(digit, std::string::npos);
  entry[digit] = entry[digit] == '9' ? '1' : static_cast<char>(entry[digit] + 1);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << entry;

  const CacheStats before = cache.stats();
  const std::vector<std::string> doctored = batch();
  ASSERT_EQ(doctored.size(), 3u);
  EXPECT_EQ(doctored[0], warm[0]);
  EXPECT_EQ(doctored[2], warm[2]);
  EXPECT_NE(doctored[1].find("\"cache\":\"corrupt\""), std::string::npos);
  const e2e::DelayProfile resolved = decode_delay_profile(
      ReadBack(Value::parse(doctored[1]).at("profile")));
  ASSERT_EQ(resolved.levels.front().diagnostics.warnings.size(), 1u);
  EXPECT_EQ(resolved.levels.front().diagnostics.warnings[0].kind,
            diag::SolveErrorKind::kCorruptCache);
  EXPECT_EQ(cache.stats().corrupt - before.corrupt, 1);
  EXPECT_EQ(cache.stats().hits - before.hits, 2);
  // The re-solve overwrote the entry: the next run hits everywhere.
  EXPECT_EQ(batch(), warm);
}

TEST(Batch, MissWritesItsPayloadOnceForTheStoreAndTheResponse) {
  // solve_request writes the payload's bytes; the store and the
  // response take those bytes as they are.  Swapping in the bytes of
  // another result shows it: both then carry the other result.
  ResultCache cache(fresh_cache_dir("deltanc_batch_miss_once"));
  const ParsedRequestLine line = parse_request_line(
      request_line(small_scenario(60), 0), e2e::Method::kExactOpt);
  Answer answer = solve_request(Solver(line.options), line);
  ASSERT_TRUE(answer.ok);
  EXPECT_EQ(answer.payload_json, written_payload(answer));
  const e2e::BoundResult other{1.5, 0.25, 0.125, 10.0, 0.0};
  answer.payload_json.clear();
  append_json(answer.payload_json, other);

  ASSERT_TRUE(try_store_answer(cache, line, answer));
  const std::string response =
      make_ok_response(line.id, true, CacheLookup::kMiss, answer).text;
  EXPECT_NE(response.find(answer.payload_json), std::string::npos);
  Answer hit;
  ASSERT_EQ(lookup_answer(cache, line, hit), CacheLookup::kHit);
  EXPECT_EQ(std::get<e2e::BoundResult>(hit.payload).delay_ms, 1.5);
  EXPECT_EQ(hit.payload_json, answer.payload_json);
}

TEST(Batch, PerRequestOptionsGroupAndSolveCorrectly) {
  // Same scenario under two option sets in one batch: a scheduler
  // override and the paper's K-procedure must each match their direct
  // solve, and grouping must not reorder responses.
  const e2e::Scenario sc = small_scenario(60);
  Value with_sched = Value::object();
  SolveOptions edf_opt;
  edf_opt.scheduler = sched::SchedulerKind::kEdf;
  with_sched.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(0.0))
      .set("scenario", encode_scenario(sc))
      .set("options", encode_solve_options(edf_opt));
  SolveOptions paper_opt;
  paper_opt.method = e2e::Method::kPaperK;
  Value with_method = Value::object();
  with_method.set("schema", Value::number(kSchemaVersion))
      .set("id", Value::number(1.0))
      .set("scenario", encode_scenario(sc))
      .set("options", encode_solve_options(paper_opt));

  std::stringstream in(with_sched.dump() + "\n" + with_method.dump() + "\n");
  std::ostringstream out;
  (void)run_batch(in, out, BatchOptions{});

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  e2e::Scenario edf_sc = sc;
  edf_sc.scheduler = sched::SchedulerKind::kEdf;
  const e2e::BoundResult edf_direct = deltanc::Solver().solve(edf_sc);
  const e2e::BoundResult paper_direct =
      deltanc::Solver(e2e::Method::kPaperK).solve(sc);
  EXPECT_EQ(responses[0].at("id").as_number(), 0.0);
  EXPECT_EQ(decode_bound_result(ReadBack(responses[0].at("result"))).delay_ms,
            edf_direct.delay_ms);
  EXPECT_EQ(decode_bound_result(ReadBack(responses[1].at("result"))).delay_ms,
            paper_direct.delay_ms);
}

TEST(Batch, FinalLineWithoutTrailingNewlineIsAnswered) {
  // A request file truncated mid-stream (`emit-batch | head -c`, a
  // client hanging up after an unterminated write) still ends in a
  // valid request -- it must be answered, not silently dropped.
  std::stringstream in(request_line(small_scenario(60), 0) + "\n" +
                       request_line(small_scenario(40), 1));  // no '\n'
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 2);
  EXPECT_EQ(summary.responses, 2);
  EXPECT_FALSE(summary.output_failed);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1].at("id").as_number(), 1.0);
  EXPECT_TRUE(responses[1].at("ok").as_bool());
}

TEST(Batch, OutputFailureIsReportedNotFatal) {
  // The consumer of the response stream hanging up (SIGPIPE is ignored
  // in the CLI; the stream just goes bad) must stop emission and be
  // reported via BatchSummary::output_failed, never crash the batch.
  class FailAfter : public std::streambuf {
   public:
    explicit FailAfter(std::size_t limit) : limit_(limit) {}

   protected:
    int overflow(int ch) override {
      if (written_ >= limit_) return traits_type::eof();  // "EPIPE"
      ++written_;
      return ch;
    }

   private:
    std::size_t limit_;
    std::size_t written_ = 0;
  };

  std::stringstream in(request_line(small_scenario(60), 0) + "\n" +
                       request_line(small_scenario(40), 1) + "\n");
  FailAfter buffer(10);  // dies mid-first-response
  std::ostream out(&buffer);
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_TRUE(summary.output_failed);
  EXPECT_EQ(summary.requests, 2);
  EXPECT_LT(summary.responses, 2);
}

TEST(Batch, StoreFailureDegradesToCountedSolveThrough) {
  // A full disk (simulated via the deterministic fault hook) must not
  // stop the batch: the result is still answered, the failure counted.
  ResultCache cache(fresh_cache_dir("deltanc_batch_store_fail"));
  cache.fail_next_stores(1);
  const std::string requests = request_line(small_scenario(60), 0) + "\n";

  BatchOptions options;
  options.cache = &cache;
  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.cache_stats.stores, 0);
  EXPECT_EQ(summary.cache_stats.store_failures, 1);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());

  // The entry never landed, so a rerun is a miss -- and this store
  // succeeds, healing the cache.
  std::stringstream again_in(requests);
  std::ostringstream again_out;
  const BatchSummary again = run_batch(again_in, again_out, options);
  EXPECT_EQ(again.solved, 1);
  EXPECT_EQ(again.cache_stats.stores, 1);
  EXPECT_EQ(again.cache_stats.store_failures, 0);
}

// ----- delay-profile requests --------------------------------------------

TEST(Batch, ParsedScalarKeyIsTheSolveCacheKey) {
  // run_batch and the serve workers look scalar requests up by the key
  // computed at parse time, so it must be exactly the solve_cache_key of
  // the decoded request -- with or without an options object, under any
  // default method.
  const e2e::Scenario sc = small_scenario(60);
  EXPECT_EQ(parse_request_line(request_line(sc, 0), e2e::Method::kExactOpt).key,
            solve_cache_key(sc, SolveOptions{}));
  // Its hash is taken once, there: the shard and the entry file name.
  const ParsedRequestLine parsed =
      parse_request_line(request_line(sc, 0), e2e::Method::kExactOpt);
  EXPECT_EQ(parsed.key_hash, fnv1a64(parsed.key));

  SolveOptions paper;
  paper.method = e2e::Method::kPaperK;
  EXPECT_EQ(parse_request_line(request_line(sc, 1), e2e::Method::kPaperK).key,
            solve_cache_key(sc, paper));

  SolveOptions options;
  options.scheduler = sched::SchedulerKind::kEdf;
  options.warm_start = e2e::WarmStart::kWarm;
  Value req = Value::parse(request_line(sc, 2));
  req.set("options", encode_solve_options(options));
  const ParsedRequestLine line =
      parse_request_line(req.dump(), e2e::Method::kExactOpt);
  EXPECT_FALSE(line.is_profile());
  // A scalar line's warm_start folds to cold: the stateless solve
  // ignores it.
  SolveOptions cold = options;
  cold.warm_start = e2e::WarmStart::kCold;
  EXPECT_EQ(line.key, solve_cache_key(sc, cold));
}

TEST(Batch, ScalarWarmStartSpellingsShareOneCacheEntry) {
  // A scalar request is solved statelessly whatever its warm_start, so
  // "warm" and "cold" name one answer: one key, and a rerun under the
  // other spelling hits the entry the first one stored.
  const e2e::Scenario sc = small_scenario(60);
  const auto line_with = [&](e2e::WarmStart warm_start) {
    SolveOptions options;
    options.warm_start = warm_start;
    Value req = Value::parse(request_line(sc, 7));
    req.set("options", encode_solve_options(options));
    return req.dump();
  };
  const std::string warm = line_with(e2e::WarmStart::kWarm);
  const std::string cold = line_with(e2e::WarmStart::kCold);
  EXPECT_EQ(parse_request_line(warm, e2e::Method::kExactOpt).key,
            parse_request_line(cold, e2e::Method::kExactOpt).key);

  ResultCache cache(fresh_cache_dir("deltanc_batch_warm_spelling"));
  BatchOptions options;
  options.cache = &cache;
  std::stringstream first_in(warm + "\n");
  std::ostringstream first_out;
  EXPECT_EQ(run_batch(first_in, first_out, options).solved, 1);
  std::stringstream second_in(cold + "\n");
  std::ostringstream second_out;
  const BatchSummary second = run_batch(second_in, second_out, options);
  EXPECT_EQ(second.solved, 0);
  EXPECT_EQ(second.cached, 1);

  // Only the "cache" tag tells the two responses apart.
  std::string first = first_out.str();
  const std::string miss = "\"cache\":\"miss\"";
  const std::size_t at = first.find(miss);
  ASSERT_NE(at, std::string::npos) << first;
  first.replace(at, miss.size(), "\"cache\":\"hit\"");
  EXPECT_EQ(first, second_out.str());
}

TEST(Batch, ProfileRequestsAnswerFullArtifactsInOrder) {
  // A profile request rides in the same stream as scalar ones; its
  // response carries the whole d(epsilon) artifact under "profile", and
  // each level matches the direct cold solve_profile bit-for-bit.
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> grid = {1e-3, 1e-6, 1e-9};
  std::stringstream in;
  in << profile_request_line(sc, 0, grid) << "\n";
  in << request_line(small_scenario(40), 1) << "\n";
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 2);
  EXPECT_EQ(summary.solved, 2);
  EXPECT_EQ(summary.failed, 0);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].at("id").as_number(), 0.0);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].find("result"), nullptr);
  const e2e::DelayProfile got =
      decode_delay_profile(ReadBack(responses[0].at("profile")));
  const e2e::DelayProfile direct =
      deltanc::Solver().solve_profile(sc, grid);
  ASSERT_EQ(got.levels.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.epsilons[i], direct.epsilons[i]);
    EXPECT_EQ(got.levels[i].delay_ms, direct.levels[i].delay_ms);
    EXPECT_EQ(got.levels[i].s, direct.levels[i].s);
  }
  // The scalar neighbor is unaffected.
  EXPECT_NE(responses[1].find("result"), nullptr);
  EXPECT_EQ(responses[1].find("profile"), nullptr);
  // Aggregate stats count the profile's levels.
  EXPECT_EQ(summary.stats.profile_levels, 3);
}

TEST(Batch, ProfileSecondRunAnswersFromCacheBitExactly) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_profile_cache"));
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> grid = {1e-3, 1e-8};
  // A scalar request of the *same* scenario shares the batch: the two
  // keyspaces must not collide.
  const std::string requests = profile_request_line(sc, 0, grid) + "\n" +
                               request_line(sc, 1) + "\n";
  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  const BatchSummary cold = run_batch(cold_in, cold_out, options);
  EXPECT_EQ(cold.solved, 2);
  EXPECT_EQ(cold.cache_stats.stores, 2);

  std::stringstream warm_in(requests);
  std::ostringstream warm_out;
  const BatchSummary warm = run_batch(warm_in, warm_out, options);
  EXPECT_EQ(warm.solved, 0);
  EXPECT_EQ(warm.cached, 2);
  EXPECT_EQ(warm.cache_stats.hits, 2);

  const std::vector<Value> a = parse_responses(cold_out.str());
  const std::vector<Value> b = parse_responses(warm_out.str());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0].at("cache").as_string(), "hit");
  const e2e::DelayProfile cold_p = decode_delay_profile(ReadBack(a[0].at("profile")));
  const e2e::DelayProfile warm_p = decode_delay_profile(ReadBack(b[0].at("profile")));
  ASSERT_EQ(warm_p.levels.size(), cold_p.levels.size());
  for (std::size_t i = 0; i < cold_p.levels.size(); ++i) {
    EXPECT_EQ(warm_p.levels[i].delay_ms, cold_p.levels[i].delay_ms);
    EXPECT_EQ(warm_p.levels[i].sigma, cold_p.levels[i].sigma);
  }
  // The outcome lives in the "cache" tag alone: the served profile
  // encodes to exactly the bytes of the solved one.
  EXPECT_EQ(a[0].at("cache").as_string(), "miss");
  EXPECT_EQ(b[0].at("profile").dump(), a[0].at("profile").dump());
}

TEST(Batch, ProfileEpsilonGridIsValidatedAtParseTime) {
  // An empty grid and an out-of-range level are malformed requests,
  // answered in place without aborting the batch.
  const e2e::Scenario sc = small_scenario(60);
  std::stringstream in;
  in << profile_request_line(sc, 0, {}) << "\n";
  in << profile_request_line(sc, 1, {2.0}) << "\n";
  in << profile_request_line(sc, 2, {1e-3}) << "\n";  // valid
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.parse_errors, 2);
  EXPECT_EQ(summary.solved, 1);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  // The error responses still echo the ids they managed to read.
  EXPECT_EQ(responses[0].at("id").as_number(), 0.0);
  EXPECT_EQ(responses[1].at("id").as_number(), 1.0);
}

TEST(Batch, ProfileCorruptEntryRecoversWithWarningAndOverwrite) {
  ResultCache cache(fresh_cache_dir("deltanc_batch_profile_corrupt"));
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> grid = {1e-3, 1e-9};
  const std::string requests = profile_request_line(sc, 0, grid) + "\n";
  BatchOptions options;
  options.cache = &cache;

  std::stringstream cold_in(requests);
  std::ostringstream cold_out;
  (void)run_batch(cold_in, cold_out, options);

  const std::string key = profile_cache_key(sc, grid, SolveOptions{});
  std::ofstream(cache.entry_path(key), std::ios::trunc) << "not json";

  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.cache_stats.corrupt, 1);

  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].at("cache").as_string(), "corrupt");
  const e2e::DelayProfile p = decode_delay_profile(ReadBack(responses[0].at("profile")));
  // The recovery warning lands on the first level's diagnostics.
  ASSERT_FALSE(p.levels.empty());
  ASSERT_EQ(p.levels.front().diagnostics.warnings.size(), 1u);
  EXPECT_EQ(p.levels.front().diagnostics.warnings[0].kind,
            diag::SolveErrorKind::kCorruptCache);

  std::stringstream healed_in(requests);
  std::ostringstream healed_out;
  const BatchSummary healed = run_batch(healed_in, healed_out, options);
  EXPECT_EQ(healed.cached, 1);
}

TEST(Batch, UnstableProfileAnswersOkWithClassifiedInfLevels) {
  // An unstable scenario is a *solved* profile whose every level is the
  // classified +inf bound -- same discipline as the scalar path.
  const e2e::Scenario sc = small_scenario(800);
  std::stringstream in(profile_request_line(sc, 0, {1e-3, 1e-9}) + "\n");
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.solved, 1);
  EXPECT_EQ(summary.failed, 0);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  const e2e::DelayProfile p = decode_delay_profile(ReadBack(responses[0].at("profile")));
  ASSERT_EQ(p.levels.size(), 2u);
  for (const e2e::BoundResult& level : p.levels) {
    EXPECT_TRUE(std::isinf(level.delay_ms));
    EXPECT_FALSE(level.diagnostics.ok());
  }
}

TEST(Batch, ProgressCountsEverySolvedRequestOnceAcrossKindsAndGroups) {
  // Scalar and profile misses under two option groups share one progress
  // stream: one call per solved request, `done` strictly increasing
  // 1..N, `total` == N == the miss count.  An all-hit rerun solves
  // nothing and so reports nothing.
  SolveOptions paper_opt;
  paper_opt.method = e2e::Method::kPaperK;
  const auto with_options = [&](const std::string& line) {
    Value req = Value::parse(line);
    req.set("options", encode_solve_options(paper_opt));
    return req.dump();
  };
  const std::vector<double> grid = {1e-3, 1e-6, 1e-9};
  std::string requests;
  requests += request_line(small_scenario(40), 0) + "\n";
  requests += profile_request_line(small_scenario(45), 1, grid) + "\n";
  requests += with_options(request_line(small_scenario(50), 2)) + "\n";
  requests += with_options(profile_request_line(small_scenario(55), 3, grid)) +
              "\n";
  requests += request_line(small_scenario(60), 4) + "\n";
  requests += "not json\n";  // answered in place, never solved

  ResultCache cache(fresh_cache_dir("deltanc_batch_progress"));
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  BatchOptions options;
  options.cache = &cache;
  options.threads = 3;
  options.progress = [&](std::size_t done, std::size_t total) {
    calls.emplace_back(done, total);  // serialized by run_batch
  };
  std::stringstream in(requests);
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, options);
  EXPECT_EQ(summary.solved, 5);
  EXPECT_EQ(summary.parse_errors, 1);
  ASSERT_EQ(calls.size(), 5u);
  for (std::size_t k = 0; k < calls.size(); ++k) {
    EXPECT_EQ(calls[k].first, k + 1);
    EXPECT_EQ(calls[k].second, 5u);
  }

  calls.clear();
  std::stringstream again_in(requests);
  std::ostringstream again_out;
  const BatchSummary again = run_batch(again_in, again_out, options);
  EXPECT_EQ(again.cached, 5);
  EXPECT_EQ(again.solved, 0);
  EXPECT_TRUE(calls.empty());
}

/// Response lines whose strings need escaping -- the paths the committed
/// wire golden never reaches: a corrupt-entry recovery (its warning
/// embeds the escaped cache key), a parse error echoing quoted input, and
/// hand-built results whose diagnostics carry a quote, a backslash, C0
/// controls and UTF-8, through each response shape.
std::vector<std::string> escape_probe_lines() {
  std::vector<std::string> lines;
  const auto batch_lines = [&](const std::string& requests,
                               const BatchOptions& options) {
    std::stringstream in(requests);
    std::ostringstream out;
    (void)run_batch(in, out, options);
    std::istringstream text(out.str());
    std::string line;
    while (std::getline(text, line)) lines.push_back(line);
  };

  // Corrupt entry: an unstable scenario, so the bytes do not depend on
  // the optimizer.  The first run stores, the damaged entry is re-solved.
  ResultCache cache(fresh_cache_dir("deltanc_batch_escape_probe"));
  const e2e::Scenario unstable = small_scenario(800);
  BatchOptions cached;
  cached.cache = &cache;
  {
    std::stringstream in(request_line(unstable, 0) + "\n");
    std::ostringstream out;
    (void)run_batch(in, out, cached);
  }
  std::ofstream(cache.entry_path(solve_cache_key(unstable, SolveOptions{})),
                std::ios::trunc)
      << "not json";
  batch_lines(request_line(unstable, 0) + "\n", cached);

  // Parse error: the message quotes the offending capacity string.
  std::string bad = request_line(small_scenario(60), 0);
  const std::string capacity = "\"capacity\":100";
  const std::size_t at = bad.find(capacity);
  bad.replace(at, capacity.size(),
              "\"capacity\":\"x\\\"\\\\\\u0001\\t\xC2\xB5s\"");
  bad.replace(bad.find("\"id\":0"), 6, "\"id\":\"q\\\"1\"");
  batch_lines(bad + "\n", BatchOptions{});

  e2e::BoundResult r{1.5, 0.25, 0.125, 10.0, -0.0};
  r.stats.optimize_evals = 9007199254740991;  // 2^53 - 1
  r.stats.edf_iterations = 3;
  r.diagnostics.fail(diag::SolveErrorKind::kNumericalDomain,
                     "bad \"x\" at C:\\tmp\x01\x1f \xE2\x80\x94 \xC2\xB5s");
  r.diagnostics.warn(diag::SolveErrorKind::kNoConvergence,
                     "tab\there\nnew\rline\b\f");
  lines.push_back(
      make_ok_response(R"("d\"1")", true, CacheLookup::kHit, r).dump());
  e2e::DelayProfile p;
  p.epsilons = {1e-3};
  p.levels = {r};
  p.stats.profile_levels = 1;
  lines.push_back(
      make_ok_profile_response("-0", false, CacheLookup::kMiss, p).dump());
  lines.push_back(make_error_response(R"("\\")",
                                      "deadline \"7\" ms\x7f",
                                      diag::SolveErrorKind::kTimeout)
                      .dump());
  return lines;
}

TEST(Batch, EscapedResponseBytesArePinned) {
  // Captured from the DOM encoders the result writer replaced (numbers
  // re-spelled in their shortest round-trip form); any byte the writer
  // moves -- an escape, a member, a number form (-0, 2^53 - 1) -- fails
  // here.
  const std::vector<std::string> expected = {
      R"({"schema":7,"id":0,"ok":true,"cache":"corrupt","result":{"de)"
      R"(lay_ms":"inf","gamma":0,"s":0,"sigma":0,"delta":0,"stats":{")"
      R"(optimize_evals":0,"eb_evals":0,"sigma_evals":0,"edf_iteratio)"
      R"(ns":0,"edf_converged":true,"retries":0,"fallbacks":0,"batche)"
      R"(d_evals":0,"warm_start_hits":0,"brackets_reused":0,"profile_)"
      R"(levels":0,"profile_chain_hits":0},"diagnostics":{"error":"un)"
      R"(stable","message":"offered load 130.811% of capacity; no sta)"
      R"(ble Chernoff parameter exists","warnings":[{"kind":"corrupt-)"
      R"(cache","message":"cache entry {\"kind\":\"solve\",\"scenario)"
      R"(\":{\"capacity\":100,\"hops\":3,\"source\":{\"peak_kb\":1.5,)"
      R"(\"p11\":0.989,\"p22\":0.9},\"n_through\":80,\"n_cross\":800)"
      R"(,\"epsilon\":1e-06,\"scheduler\":{\"kind\":\"fifo\",\"delta\")"
      R"(:0,\"edf\":{\)"
      R"("own_factor\":1,\"cross_factor\":10},\"params\":[1,1]}},\"op)"
      R"(tions\":{\"method\":\"exact\",\"scheduler\":null,\"delta\":n)"
      R"(ull,\"warm_start\":\"cold\"}} was unreadable; re-solved"}]}})"
      R"(})",
      R"({"schema":7,"id":"q\"1","ok":false,"error":"codec: unparseab)"
      R"(le double \"x\"\\\u0001\t)"
      "\302\265"
      R"(s\""})",
      R"({"schema":7,"id":"d\"1","ok":true,"cache":"hit","result":{"d)"
      R"(elay_ms":1.5,"gamma":0.25,"s":0.125,"sigma":10,"delta":-0,"s)"
      R"(tats":{"optimize_evals":9007199254740991,"eb_evals":0,"sigma)"
      R"(_evals":0,"edf_iterations":3,"edf_converged":true,"retries":)"
      R"(0,"fallbacks":0,"batched_evals":0,"warm_start_hits":0,"brack)"
      R"(ets_reused":0,"profile_levels":0,"profile_chain_hits":0},"di)"
      R"(agnostics":{"error":"numerical-domain","message":"bad \"x\" )"
      R"(at C:\\tmp\u0001\u001f )"
      "\342\200\224"
      R"( )"
      "\302\265"
      R"(s","warnings":[{"kind":"no-convergence","message":"tab\there)"
      R"(\nnew\rline\b\f"}]}}})",
      R"({"schema":7,"id":-0,"ok":true,"profile":{"epsilons":[0.001],)"
      R"("levels":[{"delay_ms":1.5,"gamma":0.25,"s":0.125,"sigma":10,)"
      R"("delta":-0,"stats":{"optimize_evals":9007199254740991,"eb_ev)"
      R"(als":0,"sigma_evals":0,"edf_iterations":3,"edf_converged":tr)"
      R"(ue,"retries":0,"fallbacks":0,"batched_evals":0,"warm_start_h)"
      R"(its":0,"brackets_reused":0,"profile_levels":0,"profile_chain)"
      R"(_hits":0},"diagnostics":{"error":"numerical-domain","message)"
      R"(":"bad \"x\" at C:\\tmp\u0001\u001f )"
      "\342\200\224"
      R"( )"
      "\302\265"
      R"(s","warnings":[{"kind":"no-convergence","message":"tab\there)"
      R"(\nnew\rline\b\f"}]}}],"stats":{"optimize_evals":0,"eb_evals")"
      R"(:0,"sigma_evals":0,"edf_iterations":0,"edf_converged":true,")"
      R"(retries":0,"fallbacks":0,"batched_evals":0,"warm_start_hits")"
      R"(:0,"brackets_reused":0,"profile_levels":1,"profile_chain_hit)"
      R"(s":0}}})",
      R"({"schema":7,"id":"\\","ok":false,"error":"deadline \"7\" ms)"
      "\177"
      R"(","kind":"timeout"})"};
  const std::vector<std::string> lines = escape_probe_lines();
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "line " << i;
    // The written bytes are one valid JSON document each.
    EXPECT_EQ(Value::parse(lines[i]).dump(), lines[i]) << "line " << i;
  }
}

TEST(Batch, OverlongLineIsRefusedUnparsedWithANullId) {
  // A line longer than kMaxRequestLineBytes gets exactly one error
  // response with a null id, whatever its bytes (a valid request padded
  // with spaces, or nothing but spaces); the lines around it are
  // answered as usual.  Lines at the limit, and around the reader's
  // internal chunk size, are read whole.
  const auto padded = [](int id, std::size_t size) {
    std::string line = R"({"id":)" + std::to_string(id) + R"(,"schema":5})";
    line.resize(size, ' ');
    return line;
  };
  const std::string refused =
      R"({"schema":7,"id":null,"ok":false,"error":"batch: request line )"
      R"(longer than 1048576 bytes"})";
  const auto wrong_schema = [](int id) {
    return R"({"schema":7,"id":)" + std::to_string(id) +
           R"(,"ok":false,"error":"codec: schema 5 != supported 7"})";
  };
  std::stringstream in;
  in << padded(0, 30) << "\n";
  in << padded(1, kMaxRequestLineBytes + 1) << "\n";
  in << std::string(3 * kMaxRequestLineBytes, ' ') << "\n";
  in << padded(2, kMaxRequestLineBytes) << "\n";
  for (int i = 0; i < 4; ++i) in << padded(3 + i, 16382 + i) << "\n";
  in << padded(7, 2 * kMaxRequestLineBytes);  // no final newline
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.requests, 9);
  EXPECT_EQ(summary.parse_errors, 9);
  const std::vector<std::string> expected = {
      wrong_schema(0), refused,         refused,
      wrong_schema(2), wrong_schema(3), wrong_schema(4),
      wrong_schema(5), wrong_schema(6), refused};
  std::istringstream lines(out.str());
  std::string line;
  for (const std::string& want : expected) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, want);
  }
  EXPECT_FALSE(std::getline(lines, line));

  // parse_request_line applies the same rule to callers that frame
  // lines themselves (the serve listener): no id is read from the line.
  try {
    (void)parse_request_line(padded(8, kMaxRequestLineBytes + 1),
                             e2e::Method::kExactOpt);
    ADD_FAILURE() << "an over-long line was parsed";
  } catch (const PartialRequestError& e) {
    ADD_FAILURE() << "an over-long line echoed an id: " << e.what();
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "batch: request line longer than 1048576 bytes");
  }
}

TEST(Batch, ProfileGridLongerThanTheLimitIsAParseErrorKeepingTheId) {
  // One line must not buy unbounded work: a grid above kMaxProfileLevels
  // is rejected before anything is decoded or solved, and the error
  // still answers under the request's id.
  const e2e::Scenario sc = small_scenario(60);
  const std::vector<double> at_limit(kMaxProfileLevels, 1e-3);
  std::vector<double> over = at_limit;
  over.push_back(1e-3);
  EXPECT_NO_THROW((void)parse_request_line(
      profile_request_line(sc, 4, at_limit), e2e::Method::kExactOpt));
  try {
    (void)parse_request_line(profile_request_line(sc, 5, over),
                             e2e::Method::kExactOpt);
    ADD_FAILURE() << "a grid of " << over.size() << " levels was accepted";
  } catch (const PartialRequestError& e) {
    EXPECT_EQ(e.id, "5");
    EXPECT_NE(std::string(e.what()).find("1025 epsilons"), std::string::npos)
        << e.what();
  }

  std::stringstream in(profile_request_line(sc, 7, over) + "\n");
  std::ostringstream out;
  const BatchSummary summary = run_batch(in, out, BatchOptions{});
  EXPECT_EQ(summary.parse_errors, 1);
  EXPECT_EQ(summary.solved, 0);
  const std::vector<Value> responses = parse_responses(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("id").as_number(), 7.0);
}
}  // namespace
}  // namespace deltanc::io
