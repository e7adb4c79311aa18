// The serialization layer: the JSON document model/parser/writer
// (io/json.h) and the schema-versioned codec (io/codec.h).  The
// load-bearing properties are bit-exact double round-trips (including
// the non-finite encodings) and byte-stable canonical dumps -- the
// persistent result cache hashes them.
#include "e2e/solver.h"
#include "io/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scenario.h"
#include "e2e/additive_baseline.h"

namespace deltanc::io {
namespace {

using json::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

TEST(Json, ParseAndDumpRoundTripPreservingOrder) {
  const std::string text =
      R"({"z":1,"a":[true,false,null,"x\n\"y\""],"nested":{"k":-2.5}})";
  const Value v = Value::parse(text);
  EXPECT_EQ(v.dump(), text);  // insertion order preserved, compact form
  EXPECT_EQ(v.at("a").size(), 4u);
  EXPECT_TRUE(v.at("a").at(2).is_null());
  EXPECT_EQ(v.at("a").at(3).as_string(), "x\n\"y\"");
  EXPECT_EQ(v.at("nested").at("k").as_number(), -2.5);
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
  EXPECT_THROW((void)Value::parse("{} trailing"), json::ParseError);
  EXPECT_THROW((void)Value::parse(""), json::ParseError);
  EXPECT_THROW((void)Value::parse("{\"a\":}"), json::ParseError);
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  const Value v = Value::parse(R"({"n":1})");
  EXPECT_THROW((void)v.at("n").as_string(), json::TypeError);
  EXPECT_THROW((void)v.at("missing"), json::TypeError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("n").items(), json::TypeError);
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
  EXPECT_EQ(decode_double(encode_double(kInf)), kInf);
  EXPECT_EQ(decode_double(encode_double(-kInf)), -kInf);
  EXPECT_TRUE(std::isnan(decode_double(encode_double(std::nan("")))));
}

TEST(Codec, DecodeDoubleAcceptsHexfloatStrings) {
  // The PR 2 golden notation: hand-written documents can pin exact bits.
  EXPECT_EQ(decode_double(Value::string("0x1.6126458d64984p+4")),
            0x1.6126458d64984p+4);
  EXPECT_THROW((void)decode_double(Value::string("12 monkeys")), CodecError);
  EXPECT_THROW((void)decode_double(Value::boolean(true)), CodecError);
}

// ----- codec value types -------------------------------------------------

TEST(Codec, ScenarioRoundTripsExactly) {
  e2e::Scenario sc = fig2_scenario(268, sched::SchedulerKind::kEdf);
  sc.scheduler.set_edf_factors(sched::EdfFactors{1.0, 10.0});
  sc.capacity = 155.52;  // an OC-3, not representable in few digits
  const e2e::Scenario back = decode_scenario(encode_scenario(sc));
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
  EXPECT_THROW((void)decode_scenario(v), SchemaError);
  Value obj = encode_scenario(fig2_scenario(100, sched::SchedulerKind::kFifo));
  Value bad_sched = Value::object();
  bad_sched.set("kind", Value::string("wfq"));
  obj.set("scheduler", std::move(bad_sched));
  EXPECT_THROW((void)decode_scenario(obj), SchemaError);
  EXPECT_THROW((void)decode_scenario(Value::number(3.0)), CodecError);
  Value hops = encode_scenario(fig2_scenario(100, sched::SchedulerKind::kFifo));
  hops.set("hops", Value::number(2.5));
  EXPECT_THROW((void)decode_scenario(hops), CodecError);
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
    const sched::SchedulerSpec back = decode_scheduler(encode_scheduler(spec));
    EXPECT_EQ(back, spec) << sched::to_string(spec);
  }
  // The codec also accepts the compact string form (bare names,
  // "delta:<value>", and weighted "gps:w,..." spellings) wherever a
  // scheduler is expected.
  sched::SchedulerSpec s = decode_scheduler(Value::string("delta:2.5"));
  EXPECT_EQ(s, sched::SchedulerSpec::fixed_delta(2.5));
  EXPECT_EQ(decode_scheduler(Value::string("bmux")),
            sched::SchedulerSpec::bmux());
  EXPECT_EQ(decode_scheduler(Value::string("gps:3,1")),
            sched::SchedulerSpec::gps(3.0, 1.0));
  EXPECT_EQ(decode_scheduler(Value::string("sced")),
            sched::SchedulerSpec::sced());
}

TEST(Codec, SchedulerParamsFieldIsValidatedAndDefaulted) {
  // A schema-2 object (no "params") decodes to the default equal split.
  Value v2 = encode_scheduler(sched::SchedulerSpec::gps(3.0, 1.0));
  v2.set("params", Value::null());
  EXPECT_EQ(decode_scheduler(v2), sched::SchedulerSpec::gps());
  // Malformed params are CodecErrors, not silent clamps.
  Value one = encode_scheduler(sched::SchedulerSpec::gps());
  Value short_list = Value::array();
  short_list.push_back(Value::number(1.0));
  one.set("params", std::move(short_list));
  EXPECT_THROW((void)decode_scheduler(one), CodecError);
  Value neg = encode_scheduler(sched::SchedulerSpec::gps());
  Value neg_list = Value::array();
  neg_list.push_back(Value::number(-1.0));
  neg_list.push_back(Value::number(1.0));
  neg.set("params", std::move(neg_list));
  EXPECT_THROW((void)decode_scheduler(neg), CodecError);
}

TEST(Codec, DiagnosticsAndStatsRoundTrip) {
  diag::Diagnostics d;
  d.fail(diag::SolveErrorKind::kUnstable, "load 1.2 >= 1");
  d.warn(diag::SolveErrorKind::kNoConvergence, "EDF hit iteration cap");
  d.warn(diag::SolveErrorKind::kCorruptCache, "entry re-solved");
  const diag::Diagnostics back = decode_diagnostics(encode_diagnostics(d));
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
  const Value sdoc = encode_solve_stats(stats);
  for (const char* absent : {"scan_ms", "refine_ms", "cache_hits",
                             "cache_misses", "cache_stale"}) {
    EXPECT_EQ(sdoc.find(absent), nullptr) << absent;
  }
  const e2e::SolveStats sback = decode_solve_stats(sdoc);
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
  EXPECT_EQ(encode_solve_stats(sback).dump(), sdoc.dump());
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
    const e2e::BoundResult back = decode_bound_result(encode_bound_result(r));
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
  EXPECT_EQ(decode_bound_result(encode_bound_result(unstable)).delay_ms, kInf);
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
    const Value doc = encode_bound_result(r);
    const e2e::BoundResult back = decode_bound_result(doc);
    EXPECT_EQ(back.delay_ms, r.delay_ms);
    EXPECT_EQ(back.gamma, r.gamma);
    EXPECT_EQ(back.s, r.s);
    EXPECT_EQ(back.sigma, r.sigma);
    EXPECT_EQ(back.delta, r.delta);
    EXPECT_EQ(encode_bound_result(back).dump(), doc.dump());
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
  EXPECT_NO_THROW(require_schema(request));
  request.set("schema", Value::number(999.0));
  EXPECT_THROW(require_schema(request), SchemaError);
  EXPECT_THROW(require_schema(Value::object()), SchemaError);
  EXPECT_THROW(require_schema(Value::number(1.0)), SchemaError);
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

  const e2e::DelayProfile back = decode_delay_profile(encode_delay_profile(p));
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
  EXPECT_EQ(encode_delay_profile(p).dump(), encode_delay_profile(back).dump());
}

TEST(Codec, DelayProfileDecodeRejectsMalformedDocuments) {
  e2e::DelayProfile p;
  p.epsilons = {1e-3, 1e-6};
  p.levels.resize(2);
  Value doc = encode_delay_profile(p);
  // A grid/levels length mismatch is corruption, not a valid profile.
  Value grid = doc.at("epsilons");
  grid.push_back(encode_double(1e-9));
  doc.set("epsilons", std::move(grid));
  EXPECT_THROW((void)decode_delay_profile(doc), CodecError);
  EXPECT_THROW((void)decode_delay_profile(Value::number(1.0)), CodecError);
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
      decode_solve_options(encode_solve_options(options));
  EXPECT_EQ(back.method, e2e::Method::kPaperK);
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(*back.scheduler, sched::SchedulerKind::kBmux);
  ASSERT_TRUE(back.delta.has_value());
  EXPECT_EQ(*back.delta, -kInf);
  EXPECT_EQ(back.warm_start, e2e::WarmStart::kWarm);

  // Defaults survive an empty options object (batch requests may omit
  // everything).
  const SolveOptions defaults = decode_solve_options(Value::object());
  EXPECT_EQ(defaults.method, e2e::Method::kExactOpt);
  EXPECT_FALSE(defaults.scheduler.has_value());
  EXPECT_FALSE(defaults.delta.has_value());
  EXPECT_EQ(defaults.warm_start, e2e::WarmStart::kCold);
}

}  // namespace
}  // namespace deltanc::io
