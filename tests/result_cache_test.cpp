// The persistent result cache: content addressing, hit/miss/stale/
// corrupt classification, atomic stores, and recovery by overwrite.
#include "e2e/solver.h"
#include "io/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "deltanc/version.h"

namespace deltanc::io {
namespace {

e2e::Scenario small_scenario(int n_cross = 50) {
  e2e::Scenario sc;
  sc.hops = 3;
  sc.n_through = 80;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched::SchedulerKind::kFifo;
  return sc;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

class ResultCacheTest : public ::testing::Test {
 protected:
  std::filesystem::path cache_dir() const {
    return std::filesystem::path(::testing::TempDir()) /
           ("deltanc_cache_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
  }

  void SetUp() override { std::filesystem::remove_all(cache_dir()); }
  void TearDown() override { std::filesystem::remove_all(cache_dir()); }
};

TEST_F(ResultCacheTest, Fnv1a64MatchesKnownVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST_F(ResultCacheTest, Digest64IsPinnedAndSeesEveryOneByteChange) {
  // Pinned: entries written by one build are read by the next, so the
  // digest of given bytes must not move.
  EXPECT_EQ(digest64(""), 0xe940e924f1b6afc5ull);
  EXPECT_EQ(digest64("a"), 0x541bc20c80bd8632ull);
  EXPECT_EQ(digest64(R"({"delay_ms":1.5,"gamma":0.25})"), 0x6431065b363738f5ull);
  // Every one-byte change of a payload-like text moves it: each step is
  // a bijection of the state, injective in its word.
  std::string text;
  append_json(text, e2e::BoundResult{69.28930737997938, 0.25, 0.125, 10.0,
                                     -62.36037664221617});
  const std::uint64_t digest = digest64(text);
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (const char flip : {'\x01', '\x10', '\x80'}) {
      std::string changed = text;
      changed[i] = static_cast<char>(changed[i] ^ flip);
      EXPECT_NE(digest64(changed), digest) << i;
    }
  }
  EXPECT_NE(digest64(text + " "), digest);
  EXPECT_NE(digest64(text.substr(1)), digest);
}

TEST_F(ResultCacheTest, MissThenStoreThenBitExactHit) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);

  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  cache.store(key, solved);
  ASSERT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  EXPECT_EQ(out.gamma, solved.gamma);
  EXPECT_EQ(out.s, solved.s);
  EXPECT_EQ(out.sigma, solved.sigma);
  EXPECT_EQ(out.delta, solved.delta);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().stores, 1);

  // A second ResultCache over the same directory sees the entry too.
  ResultCache reopened(cache_dir());
  EXPECT_EQ(reopened.lookup(key, out), CacheLookup::kHit);
}

TEST_F(ResultCacheTest, VersionDriftClassifiesAsStaleAndIsOverwritten) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});
  cache.store(key, deltanc::Solver().solve(sc));

  // Doctor the stored entry to look like an older library release.
  const std::filesystem::path path = cache.entry_path(key);
  std::string text = read_file(path);
  const std::string current = std::string("\"") + DELTANC_VERSION_STRING + "\"";
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "\"0.0.1\"");
  write_file(path, text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
  EXPECT_EQ(cache.stats().stale, 1);

  // solve_through re-solves, reports the outcome stale (through
  // `outcome` and CacheStats), and overwrites the entry so the next
  // lookup hits again.
  CacheLookup outcome{};
  const e2e::BoundResult solved = cache.solve_through(
      sc, SolveOptions{}, [&] { return deltanc::Solver().solve(sc); },
      &outcome);
  EXPECT_EQ(outcome, CacheLookup::kStale);
  EXPECT_EQ(cache.stats().stale, 2);
  ASSERT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
}

TEST_F(ResultCacheTest, SchemaDriftIsStaleToo) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});
  cache.store(key, deltanc::Solver().solve(sc));

  // The schema version lives in the entry, not in the hashed key, so a
  // schema bump is observable as staleness instead of a silent miss.
  EXPECT_EQ(key.find("\"schema\""), std::string::npos);
  std::string text = read_file(cache.entry_path(key));
  const std::string current =
      "{\"schema\":" + std::to_string(kSchemaVersion) + ",";
  ASSERT_EQ(text.rfind(current, 0), 0u);
  text.replace(0, current.size(), "{\"schema\":0,");
  write_file(cache.entry_path(key), text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
}

// Today's (schema-7) canonical key of small_scenario() solved with
// default options, pinned literally so existing cache directories keep
// answering as hits.  Numbers are in their shortest round-trip form.
constexpr const char* kSchemaSevenKey =
    "{\"kind\":\"solve\",\"scenario\":{\"capacity\":100,\"hops\":3,"
    "\"source\":{\"peak_kb\":1.5,\"p11\":0.989,\"p22\":0.9},"
    "\"n_through\":80,\"n_cross\":50,\"epsilon\":1e-06,"
    "\"scheduler\":{\"kind\":\"fifo\",\"delta\":0,\"edf\":{"
    "\"own_factor\":1,\"cross_factor\":10},\"params\":[1,1]}},"
    "\"options\":{\"method\":\"exact\",\"scheduler\":null,\"delta\":null,"
    "\"warm_start\":\"cold\"}}";

// The key a schema-6 build wrote for the same solve: the same members,
// numbers with 17 significant digits (printf "%.17g").
constexpr const char* kSchemaSixKey =
    "{\"kind\":\"solve\",\"scenario\":{\"capacity\":100,\"hops\":3,"
    "\"source\":{\"peak_kb\":1.5,\"p11\":0.98899999999999999,"
    "\"p22\":0.90000000000000002},\"n_through\":80,\"n_cross\":50,"
    "\"epsilon\":9.9999999999999995e-07,\"scheduler\":{\"kind\":\"fifo\","
    "\"delta\":0,\"edf\":{\"own_factor\":1,\"cross_factor\":10},"
    "\"params\":[1,1]}},\"options\":{\"method\":\"exact\","
    "\"scheduler\":null,\"delta\":null,\"warm_start\":\"cold\"}}";

// A legacy build's key for the solve of small_scenario() -- a
// `legacy_schema` entry in its own slot, and a schema-current entry
// holding a wrong answer under the legacy key in today's slot (a
// collision) -- must both go unserved: the lookup is a plain miss, the
// re-solve lands under today's key, and the legacy file stays on disk,
// unread.
void expect_legacy_key_is_plain_miss(ResultCache& cache,
                                     const std::string& legacy_key,
                                     int legacy_schema) {
  const e2e::Scenario sc = small_scenario();
  const SolveOptions options{};
  const std::string key = solve_cache_key(sc, options);
  ASSERT_EQ(key, kSchemaSevenKey);
  ASSERT_NE(legacy_key, key);

  const e2e::BoundResult wrong{1.0, 0.5, 0.1, 10.0, 0.0};
  const auto entry = [&](int schema) {
    std::string result;
    append_json(result, wrong);
    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::number(schema))
        .set("version", json::Value::string(DELTANC_VERSION_STRING))
        .set("key", json::Value::string(legacy_key))
        .set("result", json::Value::parse(result));
    return doc.dump() + "\n";
  };
  write_file(cache.entry_path(legacy_key), entry(legacy_schema));
  write_file(cache.entry_path(key), entry(kSchemaVersion));

  // Neither is served: the stored key must equal the requested one.
  e2e::BoundResult out;
  out.delay_ms = -1.0;
  EXPECT_EQ(cache.lookup(sc, options, out), CacheLookup::kMiss);
  EXPECT_EQ(out.delay_ms, -1.0);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().stale, 0);

  CacheLookup outcome{};
  const e2e::BoundResult solved = cache.solve_through(
      sc, options, [&] { return deltanc::Solver().solve(sc); }, &outcome);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().stale, 0);
  ASSERT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  EXPECT_NE(out.delay_ms, wrong.delay_ms);
  EXPECT_TRUE(std::filesystem::exists(cache.entry_path(legacy_key)));
}

TEST_F(ResultCacheTest, SchemaFourEntryIsAPlainMissNeverWrongHit) {
  // The key a schema-4 build wrote for this very solve: no leading
  // "kind" member, and the since-retired EDF restart option.
  const std::string v4_key =
      "{\"scenario\":{\"capacity\":100,\"hops\":3,\"source\":{\"peak_kb\":1.5,"
      "\"p11\":0.98899999999999999,\"p22\":0.90000000000000002},"
      "\"n_through\":80,\"n_cross\":50,\"epsilon\":9.9999999999999995e-07,"
      "\"scheduler\":{\"kind\":\"fifo\",\"delta\":0,\"edf\":{\"own_factor\":1,"
      "\"cross_factor\":10},\"params\":[1,1]}},\"options\":{\"method\":"
      "\"exact\",\"scheduler\":null,\"delta\":null,\"max_edf_restarts\":-1,"
      "\"warm_start\":\"cold\"}}";
  ResultCache cache(cache_dir());
  expect_legacy_key_is_plain_miss(cache, v4_key, 4);
}

TEST_F(ResultCacheTest, SchemaFiveEntryIsAPlainMissNeverWrongHit) {
  // The key a schema-5 build wrote for this very solve: the schema-6
  // spelling plus the since-retired "max_edf_restarts" option member
  // (always -1 outside tests).
  std::string v5_key = kSchemaSixKey;
  const std::string tail = "\"warm_start\":\"cold\"}}";
  ASSERT_EQ(v5_key.rfind(tail), v5_key.size() - tail.size());
  v5_key.insert(v5_key.size() - tail.size(), "\"max_edf_restarts\":-1,");
  ResultCache cache(cache_dir());
  expect_legacy_key_is_plain_miss(cache, v5_key, 5);
}

TEST_F(ResultCacheTest, SchemaSixEntryIsAPlainMissNeverWrongHit) {
  // Schema 6 wrote this solve's key with 17-digit numbers, so its entry
  // sits in another slot and never answers today's key.
  ResultCache cache(cache_dir());
  expect_legacy_key_is_plain_miss(cache, kSchemaSixKey, 6);
}

TEST_F(ResultCacheTest, SchemaSixEntryUnderAnUnchangedKeyIsStale) {
  // A scenario whose every number is a short exact decimal: printf
  // "%.17g" and the shortest round-trip form spell it alike, so schema 6
  // wrote this very key and its entry lands in today's slot.  Only the
  // entry's schema tells it apart (its stats counted eb(s) differently),
  // so the lookup must classify it stale and the re-solve overwrite it.
  e2e::Scenario sc = small_scenario();
  sc.source = traffic::MmooSource(1.5, 0.875, 0.5);
  sc.epsilon = 0.5;
  const SolveOptions options{};
  const std::string key = solve_cache_key(sc, options);
  ASSERT_EQ(key,
            "{\"kind\":\"solve\",\"scenario\":{\"capacity\":100,\"hops\":3,"
            "\"source\":{\"peak_kb\":1.5,\"p11\":0.875,\"p22\":0.5},"
            "\"n_through\":80,\"n_cross\":50,\"epsilon\":0.5,"
            "\"scheduler\":{\"kind\":\"fifo\",\"delta\":0,\"edf\":{"
            "\"own_factor\":1,\"cross_factor\":10},\"params\":[1,1]}},"
            "\"options\":{\"method\":\"exact\",\"scheduler\":null,"
            "\"delta\":null,\"warm_start\":\"cold\"}}");
  for (const double v : {100.0, 3.0, 1.5, 0.875, 0.5, 80.0, 50.0, 0.0, 1.0,
                         10.0}) {
    char printf_text[32];
    std::snprintf(printf_text, sizeof printf_text, "%.17g", v);
    std::string shortest;
    json::append_number(shortest, v);
    ASSERT_EQ(shortest, printf_text) << v;
  }

  const e2e::BoundResult wrong{1.0, 0.5, 0.1, 10.0, 0.0};
  std::string entry = R"({"schema":6,"version":")" +
                      std::string(DELTANC_VERSION_STRING) + R"(","key":)";
  json::append_quoted(entry, key);
  entry += R"(,"result":)";
  append_json(entry, wrong);
  entry += "}\n";
  ResultCache cache(cache_dir());
  write_file(cache.entry_path(key), entry);

  e2e::BoundResult out;
  out.delay_ms = -1.0;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kStale);
  EXPECT_EQ(out.delay_ms, -1.0);
  CacheLookup outcome{};
  const e2e::BoundResult solved = cache.solve_through(
      sc, options, [&] { return deltanc::Solver().solve(sc); }, &outcome);
  EXPECT_EQ(outcome, CacheLookup::kStale);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().stale, 2);
  ASSERT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  EXPECT_NE(out.delay_ms, wrong.delay_ms);
}

TEST_F(ResultCacheTest, CurveBackedSchedulersHaveNoLegacySlots) {
  // gps/drr/sced are addressed by the current key alone, like every
  // solve, and the curve-backed result (NaN delta on the wire)
  // round-trips through store + hit like any other.
  e2e::Scenario sc = small_scenario();
  sc.scheduler = sched::SchedulerSpec::gps(2.0, 1.0);
  ResultCache cache(cache_dir());
  const std::string key = solve_cache_key(sc, SolveOptions{});
  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isnan(solved.delta));
  cache.store(key, solved);
  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(sc, SolveOptions{}, out), CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  EXPECT_TRUE(std::isnan(out.delta));
}

// ----- delay-profile entries ---------------------------------------------

TEST_F(ResultCacheTest, ProfileMissStoreThenBitExactHit) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::vector<double> grid = {1e-3, 1e-6, 1e-9};
  const SolveOptions options{};
  const std::string key = profile_cache_key(sc, grid, options);

  e2e::DelayProfile out;
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kMiss);

  const e2e::DelayProfile solved =
      deltanc::Solver().solve_profile(sc, grid);
  ASSERT_TRUE(cache.try_store_profile(key, solved));
  ASSERT_EQ(cache.lookup_profile(key, out), CacheLookup::kHit);
  ASSERT_EQ(out.levels.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.epsilons[i], solved.epsilons[i]);
    EXPECT_EQ(out.levels[i].delay_ms, solved.levels[i].delay_ms);
    EXPECT_EQ(out.levels[i].s, solved.levels[i].s);
    EXPECT_EQ(out.levels[i].sigma, solved.levels[i].sigma);
  }

  // Disjoint keyspaces: the profile entry is invisible to the scalar
  // lookup of the same scenario, and vice versa.
  e2e::BoundResult scalar;
  EXPECT_EQ(cache.lookup(sc, options, scalar), CacheLookup::kMiss);

  ResultCache reopened(cache_dir());
  EXPECT_EQ(reopened.lookup_profile(key, out), CacheLookup::kHit);
}

TEST_F(ResultCacheTest, ProfileEntriesClassifyStaleAndCorrupt) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::vector<double> grid = {1e-4, 1e-8};
  const SolveOptions options{};
  const std::string key = profile_cache_key(sc, grid, options);
  cache.store_profile(key, deltanc::Solver().solve_profile(sc, grid));

  // Version drift -> stale, no bits served.
  std::string text = read_file(cache.entry_path(key));
  const std::string current = std::string("\"") + DELTANC_VERSION_STRING + "\"";
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, current.size(), "\"0.0.1\"");
  write_file(cache.entry_path(key), text);
  e2e::DelayProfile out;
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kStale);

  // Unreadable bytes -> corrupt; a re-solve recovers by overwrite.
  write_file(cache.entry_path(key), "{\"schema\": truncated garba");
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kCorrupt);
  const e2e::DelayProfile solved = deltanc::Solver().solve_profile(sc, grid);
  ASSERT_TRUE(cache.try_store_profile(key, solved));
  ASSERT_EQ(cache.lookup_profile(key, out), CacheLookup::kHit);
  EXPECT_EQ(out.levels.back().delay_ms, solved.levels.back().delay_ms);
  EXPECT_EQ(cache.stats().stale, 1);
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(ResultCacheTest, TryStoreProfileSurvivesInjectedFailures) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::vector<double> grid = {1e-3, 1e-9};
  const std::string key = profile_cache_key(sc, grid, SolveOptions{});
  const e2e::DelayProfile solved = deltanc::Solver().solve_profile(sc, grid);

  cache.fail_next_stores(1);
  EXPECT_FALSE(cache.try_store_profile(key, solved));
  EXPECT_EQ(cache.stats().store_failures, 1);
  e2e::DelayProfile out;
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kMiss);

  EXPECT_TRUE(cache.try_store_profile(key, solved));
  EXPECT_EQ(cache.lookup_profile(key, out), CacheLookup::kHit);
}

TEST_F(ResultCacheTest, SimulationLoweringsDoNotPerturbSolverKeys) {
  // The DRR/SCED simulation lowerings added sim-side config fields only;
  // the solver cache key is a function of the *scenario*, so those
  // lowerings did not bump the schema.  Solver-side fields do: the
  // warm-start policy in SolveOptions took the schema from 3 to 4, and
  // the "kind"-discriminated cache keys plus delay-profile documents
  // took it from 4 to 5, and the deterministic-only stats (no timings,
  // no cache-outcome counters) plus the retired EDF restart option took
  // it from 5 to 6, and the shortest round-trip numbers plus eb_evals
  // counting calls took it from 6 to 7 (see io/codec.h).
  static_assert(kSchemaVersion == 7,
                "sim-side config fields must not bump the cache schema; "
                "the schema-7 bump came from the shortest round-trip "
                "numbers and eb_evals counting eb(s) calls");
  ResultCache cache(cache_dir());
  for (const sched::SchedulerSpec& spec :
       {sched::SchedulerSpec::drr(2.0, 1.0), sched::SchedulerSpec::sced(),
        sched::SchedulerSpec::gps(2.0, 1.0)}) {
    e2e::Scenario sc = small_scenario();
    sc.scheduler = spec;
    const std::string key = solve_cache_key(sc, SolveOptions{});
    cache.store(key, deltanc::Solver().solve(sc));
    e2e::BoundResult out;
    EXPECT_EQ(cache.lookup(sc, SolveOptions{}, out), CacheLookup::kHit)
        << sched::to_string(spec);
    // The key must also be reproducible from an identical scenario
    // value (content addressing, not object identity).
    e2e::Scenario again = small_scenario();
    again.scheduler = spec;
    EXPECT_EQ(solve_cache_key(again, SolveOptions{}), key)
        << sched::to_string(spec);
  }
  EXPECT_EQ(cache.stats().hits, 3);
  EXPECT_EQ(cache.stats().stale, 0);
}

TEST_F(ResultCacheTest, CorruptEntryIsDetectedAndRecoverable) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});
  cache.store(key, deltanc::Solver().solve(sc));

  write_file(cache.entry_path(key), "{\"schema\":2, truncated garba");
  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kCorrupt);
  EXPECT_EQ(cache.stats().corrupt, 1);

  // An empty file, and a directory in the entry's place (it opens, but
  // reading it fails), are corrupt too; only a failed open is a miss.
  write_file(cache.entry_path(key), "");
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kCorrupt);
  std::filesystem::remove(cache.entry_path(key));
  std::filesystem::create_directory(cache.entry_path(key));
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kCorrupt);
  std::filesystem::remove(cache.entry_path(key));
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);
  EXPECT_EQ(cache.stats().corrupt, 3);

  // Well-formed JSON of the current schema that is not a valid entry is
  // corrupt as well (an *older* schema would be stale instead).
  write_file(cache.entry_path(key),
             "{\"schema\":" + std::to_string(kSchemaVersion) +
                 ",\"version\":3}");
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kCorrupt);

  // Recovery: solve_through overwrites the damaged entry.
  CacheLookup outcome{};
  (void)cache.solve_through(sc, SolveOptions{},
                            [&] { return deltanc::Solver().solve(sc); },
                            &outcome);
  EXPECT_EQ(outcome, CacheLookup::kCorrupt);
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
}

TEST_F(ResultCacheTest, DoctoredEntriesClassifyAsPinned) {
  // Hand-doctored entry files and the outcome each lookup reports, plus
  // the decoded bits of every hit, captured from the DOM-based entry
  // reader the flat reader replaced.  Duplicate members follow the JSON
  // layer's rule: the last one wins.
  ResultCache cache(cache_dir());
  const std::string key = solve_cache_key(small_scenario(), SolveOptions{});
  const std::string profile_key =
      profile_cache_key(small_scenario(), std::vector<double>{1e-3},
                        SolveOptions{});
  std::string quoted_key, quoted_profile_key, good, other;
  json::append_quoted(quoted_key, key);
  json::append_quoted(quoted_profile_key, profile_key);
  append_json(good, e2e::BoundResult{1.5, 0.25, 0.125, 10.0, 0.0});
  append_json(other, e2e::BoundResult{2.5, 0.25, 0.125, 10.0, 0.0});
  const std::string version =
      std::string("\"") + DELTANC_VERSION_STRING + "\"";
  const std::string head = R"({"schema":7,"version":)" + version + ",";
  const std::string canonical =
      head + R"("key":)" + quoted_key + R"(,"result":)" + good + "}\n";
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = canonical;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  const double kNotHit = -1.0;  // the lookup leaves `out` untouched
  struct Case {
    const char* name;
    std::string text;
    CacheLookup outcome;
    double delay_ms;
  };
  const Case cases[] = {
      {"canonical", canonical, CacheLookup::kHit, 1.5},
      {"schema 6", with(R"("schema":7)", R"("schema":6)"),
       CacheLookup::kStale, kNotHit},
      {"schema 8", with(R"("schema":7)", R"("schema":8)"),
       CacheLookup::kStale, kNotHit},
      {"schema string", with(R"("schema":7)", R"("schema":"7")"),
       CacheLookup::kStale, kNotHit},
      {"schema 7.0", with(R"("schema":7)", R"("schema":7.0)"),
       CacheLookup::kHit, 1.5},
      {"schema absent", with(R"("schema":7,)", ""), CacheLookup::kStale,
       kNotHit},
      {"schema 6 then 7",
       with(R"("schema":7)", R"("schema":6,"schema":7)"), CacheLookup::kHit,
       1.5},
      {"schema 7 then 6",
       with(R"("schema":7)", R"("schema":7,"schema":6)"),
       CacheLookup::kStale, kNotHit},
      {"other version", with(version, R"("0.0.1")"), CacheLookup::kStale,
       kNotHit},
      {"numeric version", with(version, "3"), CacheLookup::kCorrupt,
       kNotHit},
      {"version absent", with(R"("version":)" + version + ",", ""),
       CacheLookup::kCorrupt, kNotHit},
      {"foreign key", with(R"(\"n_cross\":50)", R"(\"n_cross\":51)"),
       CacheLookup::kMiss, kNotHit},
      {"key absent", with(R"("key":)" + quoted_key + ",", ""),
       CacheLookup::kCorrupt, kNotHit},
      {"numeric key", with(quoted_key, "7"), CacheLookup::kCorrupt, kNotHit},
      {"foreign then own key",
       with(R"("key":)", R"("key":"other","key":)"), CacheLookup::kHit, 1.5},
      {"own then foreign key",
       with(R"(,"result":)", R"(,"key":"other","result":)"),
       CacheLookup::kMiss, kNotHit},
      {"result twice", with(good + "}", good + R"(,"result":)" + other + "}"),
       CacheLookup::kHit, 2.5},
      {"result then garbage", with(good + "}", good + R"(,"result":5})"),
       CacheLookup::kCorrupt, kNotHit},
      {"result absent", with(R"(,"result":)" + good, ""),
       CacheLookup::kCorrupt, kNotHit},
      {"unknown error kind",
       with(R"("error":"none")", R"("error":"frobnicated")"),
       CacheLookup::kCorrupt, kNotHit},
      {"mistyped counter",
       with(R"("edf_converged":true)", R"("edf_converged":"yes")"),
       CacheLookup::kCorrupt, kNotHit},
      {"hexfloat delay", with(R"("delay_ms":1.5)", R"("delay_ms":"0x1.8p+0")"),
       CacheLookup::kHit, 1.5},
      {"infinite delay", with(R"("delay_ms":1.5)", R"("delay_ms":"inf")"),
       CacheLookup::kHit, std::numeric_limits<double>::infinity()},
      {"cut after schema", canonical.substr(0, 11), CacheLookup::kCorrupt,
       kNotHit},
      {"cut in half", canonical.substr(0, canonical.size() / 2),
       CacheLookup::kCorrupt, kNotHit},
      {"last brace cut", canonical.substr(0, canonical.size() - 2),
       CacheLookup::kCorrupt, kNotHit},
      {"trailing bytes", canonical + "x", CacheLookup::kCorrupt, kNotHit},
      {"array root", "[]", CacheLookup::kStale, kNotHit},
      {"number root", "6", CacheLookup::kStale, kNotHit},
      {"string root", R"("schema")", CacheLookup::kStale, kNotHit},
      {"null root", "null", CacheLookup::kStale, kNotHit},
      {"empty object", "{}", CacheLookup::kStale, kNotHit},
  };
  for (const Case& c : cases) {
    write_file(cache.entry_path(key), c.text);
    e2e::BoundResult out;
    out.delay_ms = kNotHit;
    EXPECT_EQ(cache.lookup(key, out), c.outcome) << c.name;
    EXPECT_EQ(out.delay_ms, c.delay_ms) << c.name;
  }

  // Profile entries: the payload member must be "profile", and its grid
  // and levels must agree.
  std::string profile;
  e2e::DelayProfile one;
  one.epsilons = {1e-3};
  one.levels = {e2e::BoundResult{1.5, 0.25, 0.125, 10.0, 0.0}};
  append_json(profile, one);
  const std::string profile_entry = head + R"("key":)" + quoted_profile_key +
                                    R"(,"profile":)" + profile + "}\n";
  const auto profile_with = [&](const std::string& from,
                                const std::string& to) {
    std::string text = profile_entry;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  struct ProfileCase {
    const char* name;
    std::string text;
    CacheLookup outcome;
    std::size_t levels;
  };
  const ProfileCase profile_cases[] = {
      {"canonical", profile_entry, CacheLookup::kHit, 1},
      {"scalar payload", profile_with(R"("profile":)", R"("result":)"),
       CacheLookup::kCorrupt, 0},
      {"grid longer than levels",
       profile_with(R"("epsilons":[0.001])", R"("epsilons":[0.001,0.01])"),
       CacheLookup::kCorrupt, 0},
      {"string epsilon",
       profile_with(R"("epsilons":[0.001])", R"("epsilons":["1e-3"])"),
       CacheLookup::kHit, 1},
      {"levels not an array", profile_with(R"("levels":[)", R"("levels":[[)"),
       CacheLookup::kCorrupt, 0},
  };
  for (const ProfileCase& c : profile_cases) {
    write_file(cache.entry_path(profile_key), c.text);
    e2e::DelayProfile out;
    EXPECT_EQ(cache.lookup_profile(profile_key, out), c.outcome) << c.name;
    ASSERT_EQ(out.levels.size(), c.levels) << c.name;
    if (c.levels > 0) {
      EXPECT_EQ(out.epsilons.front(), 1e-3) << c.name;
      EXPECT_EQ(out.levels.front().delay_ms, 1.5) << c.name;
    }
  }
}

TEST_F(ResultCacheTest, HashCollisionDegradesToMissNotWrongAnswer) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});
  cache.store(key, deltanc::Solver().solve(sc));

  // Simulate a colliding key by doctoring the stored key string (it is
  // embedded JSON, so its quotes appear escaped): the file is present
  // and decodable, but it belongs to someone else.
  std::string text = read_file(cache.entry_path(key));
  const std::string mine = R"(\"n_cross\":50)";
  const std::size_t at = text.find(mine);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, mine.size(), R"(\"n_cross\":51)");
  write_file(cache.entry_path(key), text);

  e2e::BoundResult out;
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kMiss);
}

TEST_F(ResultCacheTest, HitHandsOnTheStoredPayloadBytes) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});
  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  cache.store(key, solved);
  std::string written;
  append_json(written, solved);

  // The entry carries the payload's bytes and their digest.
  const std::string text = read_file(cache.entry_path(key));
  std::string digest = R"("digest":")";
  for (int i = 60; i >= 0; i -= 4) {
    digest += "0123456789abcdef"[(digest64(written) >> i) & 0xF];
  }
  EXPECT_NE(text.find(digest + R"(","result":)" + written + "}\n"),
            std::string::npos)
      << text;

  e2e::BoundResult out;
  std::string payload_json;
  ASSERT_EQ(cache.lookup(key, fnv1a64(key), out, payload_json),
            CacheLookup::kHit);
  EXPECT_EQ(payload_json, written);
  EXPECT_EQ(out.delay_ms, solved.delay_ms);
  // Without the bytes asked for, the lookup classifies alike.
  EXPECT_EQ(cache.lookup(key, out), CacheLookup::kHit);
  EXPECT_EQ(cache.stats().hits, 2);

  // An entry longer than one 16 KiB read is read whole.
  e2e::DelayProfile big;
  for (int i = 0; i < 200; ++i) {
    big.epsilons.push_back(1e-9 * (i + 1));
    big.levels.push_back(e2e::BoundResult{1.5 + i, 0.25, 0.125, 10.0, 0.0});
  }
  const std::string big_key = profile_cache_key(sc, big.epsilons, {});
  cache.store_profile(big_key, big);
  std::string big_written;
  append_json(big_written, big);
  ASSERT_GT(big_written.size(), std::size_t{3} * 16384);
  e2e::DelayProfile big_out;
  ASSERT_EQ(cache.lookup_profile(big_key, fnv1a64(big_key), big_out,
                                 payload_json),
            CacheLookup::kHit);
  EXPECT_EQ(payload_json, big_written);
  EXPECT_EQ(big_out.levels.back().delay_ms, 200.5);
}

TEST_F(ResultCacheTest, DigestMismatchIsCorrupt) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  const std::string key = solve_cache_key(sc, SolveOptions{});
  cache.store(key, deltanc::Solver().solve(sc));
  const std::string good = read_file(cache.entry_path(key));
  const std::size_t payload = good.find(R"("result":)");
  ASSERT_NE(payload, std::string::npos);
  const std::size_t digit = good.find_first_of("123456789", payload);
  ASSERT_NE(digit, std::string::npos);

  const auto outcome_of = [&](const std::string& text) {
    write_file(cache.entry_path(key), text);
    e2e::BoundResult out;
    out.delay_ms = -1.0;
    std::string payload_json = "untouched";
    const CacheLookup found =
        cache.lookup(key, fnv1a64(key), out, payload_json);
    if (found != CacheLookup::kHit) {
      EXPECT_EQ(out.delay_ms, -1.0);
      EXPECT_EQ(payload_json, "untouched");
    }
    return found;
  };
  // One flipped payload digit still decodes, to another number: only
  // the digest tells.
  std::string flipped = good;
  flipped[digit] =
      flipped[digit] == '9' ? '1' : static_cast<char>(flipped[digit] + 1);
  EXPECT_EQ(outcome_of(flipped), CacheLookup::kCorrupt);
  // A damaged digest, or one that is not a 16-digit string, is too.
  const std::size_t hex = good.find(R"("digest":")") + 10;
  std::string bad_digest = good;
  bad_digest[hex] = bad_digest[hex] == '0' ? '1' : '0';
  EXPECT_EQ(outcome_of(bad_digest), CacheLookup::kCorrupt);
  std::string short_digest = good;
  short_digest.erase(hex, 1);
  EXPECT_EQ(outcome_of(short_digest), CacheLookup::kCorrupt);
  std::string null_digest = good;
  null_digest.replace(hex - 1, 18, "null");
  EXPECT_EQ(outcome_of(null_digest), CacheLookup::kCorrupt);
  // The stored key is checked first: a foreign key is still a miss.
  std::string foreign = flipped;
  const std::string mine = R"(\"n_cross\":50)";
  foreign.replace(foreign.find(mine), mine.size(), R"(\"n_cross\":51)");
  EXPECT_EQ(outcome_of(foreign), CacheLookup::kMiss);
  EXPECT_EQ(outcome_of(good), CacheLookup::kHit);
  EXPECT_EQ(cache.stats().corrupt, 4);
}

TEST_F(ResultCacheTest, EntryWithoutDigestHitsAndIsWrittenAgain) {
  // An entry from before the digest (or written by hand) is classified
  // as before; a hit's bytes are the decoded payload written again, so
  // a hexfloat delay answers in the canonical form.
  ResultCache cache(cache_dir());
  const std::string key = solve_cache_key(small_scenario(), SolveOptions{});
  std::string quoted_key;
  json::append_quoted(quoted_key, key);
  const e2e::BoundResult result{1.5, 0.25, 0.125, 10.0, 0.0};
  std::string canonical;
  append_json(canonical, result);
  std::string hand = canonical;
  hand.replace(hand.find("1.5"), 3, R"("0x1.8p+0")");
  write_file(cache.entry_path(key),
             std::string(R"({"schema":7,"version":")") +
                 DELTANC_VERSION_STRING + R"(","key":)" + quoted_key +
                 R"(,"result":)" + hand + "}\n");
  e2e::BoundResult out;
  std::string payload_json;
  ASSERT_EQ(cache.lookup(key, fnv1a64(key), out, payload_json),
            CacheLookup::kHit);
  EXPECT_EQ(out.delay_ms, 1.5);
  EXPECT_EQ(payload_json, canonical);
}

TEST_F(ResultCacheTest, SolveThroughCountsOneOutcomePerResult) {
  ResultCache cache(cache_dir());
  const e2e::Scenario sc = small_scenario();
  int solves = 0;
  const auto solve = [&] {
    ++solves;
    return deltanc::Solver().solve(sc);
  };
  CacheLookup outcome{};
  const e2e::BoundResult first =
      cache.solve_through(sc, SolveOptions{}, solve, &outcome);
  EXPECT_EQ(outcome, CacheLookup::kMiss);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  const e2e::BoundResult second =
      cache.solve_through(sc, SolveOptions{}, solve, &outcome);
  EXPECT_EQ(outcome, CacheLookup::kHit);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(second.delay_ms, first.delay_ms);
  // The outcome never leaks into the result: a hit and the solve it
  // replays encode to the same bytes.
  std::string first_text;
  std::string second_text;
  append_json(first_text, first);
  append_json(second_text, second);
  EXPECT_EQ(second_text, first_text);
  EXPECT_EQ(solves, 1);  // the hit never invoked the solver
}

TEST_F(ResultCacheTest, DirectoryFromEnvPrefersTheVariable) {
  ASSERT_EQ(::setenv("DELTANC_CACHE_DIR", "/tmp/deltanc-env-cache", 1), 0);
  EXPECT_EQ(ResultCache::directory_from_env("/fallback"),
            std::filesystem::path("/tmp/deltanc-env-cache"));
  ASSERT_EQ(::setenv("DELTANC_CACHE_DIR", "", 1), 0);
  EXPECT_EQ(ResultCache::directory_from_env("/fallback"),
            std::filesystem::path("/fallback"));
  ASSERT_EQ(::unsetenv("DELTANC_CACHE_DIR"), 0);
  EXPECT_EQ(ResultCache::directory_from_env("/fallback"),
            std::filesystem::path("/fallback"));
}

TEST_F(ResultCacheTest, ShardOfPartitionsTheKeyspaceContiguously) {
  // Every key lands in exactly one shard, every count: a partition.
  const std::string keys[] = {"", "a", "foobar", "scenario-ish{\"x\":1}",
                              "another key", "yet another"};
  for (const int count : {1, 2, 3, 4, 7, 8, 256}) {
    for (const std::string& key : keys) {
      const int shard = ResultCache::shard_of(key, count);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, count);
    }
  }
  // Contiguity: the shard index is monotone in the top hash byte, so
  // shard i owns one contiguous prefix range of the directory listing.
  int previous = 0;
  for (int prefix = 0; prefix < 256; ++prefix) {
    const int shard =
        static_cast<int>(static_cast<unsigned>(prefix) * 4u / 256u);
    EXPECT_GE(shard, previous);
    previous = shard;
  }
  // Degenerate counts collapse to the single shard.
  EXPECT_EQ(ResultCache::shard_of("anything", 1), 0);
  EXPECT_EQ(ResultCache::shard_of("anything", 0), 0);
}

TEST_F(ResultCacheTest, ShardedHandlesShareOneDirectoryWithUnshardedReaders) {
  const auto dir = cache_dir();
  const e2e::Scenario sc = small_scenario(64);
  const std::string key = solve_cache_key(sc, SolveOptions{});

  // Each serve worker opens its own handle on the one directory.
  ResultCache worker(dir);
  e2e::BoundResult stored;
  stored.delay_ms = 21.5;
  worker.store(key, stored);

  // A worker's store is a plain entry: a second handle on the same
  // directory hits it bit-exactly (what keeps --serve's cache directory
  // compatible with one-shot --batch runs).
  ResultCache plain(dir);
  e2e::BoundResult found;
  EXPECT_EQ(plain.lookup(key, found), CacheLookup::kHit);
  EXPECT_EQ(found.delay_ms, 21.5);
}

TEST_F(ResultCacheTest, TryStoreCountsFailuresAndKeepsServing) {
  ResultCache cache(cache_dir());
  cache.fail_next_stores(2);
  e2e::BoundResult result;
  result.delay_ms = 10.0;
  EXPECT_FALSE(cache.try_store("key-a", result));
  EXPECT_FALSE(cache.try_store("key-b", result));
  EXPECT_TRUE(cache.try_store("key-c", result));  // budget drained
  EXPECT_EQ(cache.stats().store_failures, 2);
  EXPECT_EQ(cache.stats().stores, 1);
  // The failed keys never landed; the successful one did.
  e2e::BoundResult found;
  EXPECT_EQ(cache.lookup("key-a", found), CacheLookup::kMiss);
  EXPECT_EQ(cache.lookup("key-c", found), CacheLookup::kHit);
}

TEST_F(ResultCacheTest, ConcurrentHammerNeverServesWrongBytes) {
  // Satellite guard for the persistent service: N threads, each with
  // its own handle on ONE directory, store and look up overlapping
  // keys while one entry is corrupted mid-flight.  The contract under
  // fire: a lookup returns kHit only with the exact stored result --
  // wrong hits and crashes are the failure modes, kMiss/kStale/
  // kCorrupt are all acceptable transients.
  const auto dir = cache_dir();
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  constexpr int kRounds = 60;

  const auto expected_delay = [](int k) { return 100.0 + k; };
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back("hammer-key-" + std::to_string(k));
  }

  ResultCache seed(dir);
  for (int k = 0; k < kKeys; ++k) {
    e2e::BoundResult r;
    r.delay_ms = expected_delay(k);
    seed.store(keys[k], r);
  }
  // One entry starts corrupt; workers re-store over it as they go.
  write_file(seed.entry_path(keys[3]), "NOT JSON {{{");

  std::atomic<int> wrong_hits{0};
  std::atomic<long long> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ResultCache cache(dir);  // per-thread handle, shared directory
      for (int round = 0; round < kRounds; ++round) {
        const int k = (t + round) % kKeys;
        e2e::BoundResult found;
        const CacheLookup outcome = cache.lookup(keys[k], found);
        if (outcome == CacheLookup::kHit &&
            found.delay_ms != expected_delay(k)) {
          ++wrong_hits;
        }
        if (outcome == CacheLookup::kHit) ++hits;
        if (outcome != CacheLookup::kHit || round % 7 == t % 7) {
          e2e::BoundResult fresh;
          fresh.delay_ms = expected_delay(k);
          (void)cache.try_store(keys[k], fresh);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong_hits, 0);
  EXPECT_GT(hits, 0);
  // The corrupted entry healed: every key reads back bit-exactly.
  ResultCache verify(dir);
  for (int k = 0; k < kKeys; ++k) {
    e2e::BoundResult found;
    EXPECT_EQ(verify.lookup(keys[k], found), CacheLookup::kHit) << keys[k];
    EXPECT_EQ(found.delay_ms, expected_delay(k));
  }
}

}  // namespace
}  // namespace deltanc::io
