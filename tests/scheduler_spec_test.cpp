// The one scheduler identity: SchedulerSpec semantics and the canonical
// name registry (round-trips over every registered name), including the
// curve-backed kinds (GPS/DRR/SCED), whose Delta observers refuse by
// design and whose rate_latency() is the closed-form guarantee.  How the
// simulators run each spec: sim_scheduler_test.cpp.
#include "sched/scheduler_spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace deltanc::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SchedulerSpec, FactoriesCarryTheDefinitionOneDeltas) {
  EXPECT_EQ(SchedulerSpec::fifo().static_delta(), 0.0);
  EXPECT_EQ(SchedulerSpec::bmux().static_delta(), kInf);
  EXPECT_EQ(SchedulerSpec::sp_high().static_delta(), -kInf);
  EXPECT_EQ(SchedulerSpec::fixed_delta(2.5).static_delta(), 2.5);
  EXPECT_FALSE(SchedulerSpec::edf().static_delta().has_value());
  // SP with the through class low *is* blind multiplexing (Sec. III).
  EXPECT_EQ(SchedulerSpec::sp(false), SchedulerSpec::bmux());
  EXPECT_EQ(SchedulerSpec::sp(true), SchedulerSpec::sp_high());
}

TEST(SchedulerSpec, DeltaTermResolvesEdfAgainstTheUnit) {
  EXPECT_EQ(SchedulerSpec::fifo().delta_term(123.0), 0.0);
  EXPECT_EQ(SchedulerSpec::fixed_delta(-3.0).delta_term(123.0), -3.0);
  // EDF: Delta = d*_0 - d*_c = (own - cross) * unit.
  const SchedulerSpec edf = SchedulerSpec::edf(1.0, 10.0);
  EXPECT_TRUE(edf.needs_fixed_point());
  EXPECT_DOUBLE_EQ(edf.delta_term(2.0), (1.0 - 10.0) * 2.0);
}

TEST(SchedulerSpec, KindAssignmentKeepsEdfFactorsButResetsDelta) {
  SchedulerSpec s = SchedulerSpec::edf(2.0, 5.0);
  s = SchedulerKind::kFifo;
  EXPECT_EQ(s, SchedulerKind::kFifo);
  EXPECT_EQ(s.edf_factors(), (EdfFactors{2.0, 5.0}));
  s = SchedulerKind::kEdf;  // toggling back is lossless
  EXPECT_EQ(s, SchedulerSpec::edf(2.0, 5.0));

  SchedulerSpec d = SchedulerSpec::fixed_delta(7.0);
  d = SchedulerKind::kDelta;  // a bare kind never means "old Delta"
  EXPECT_EQ(d.delta(), 0.0);
}

TEST(SchedulerSpec, EqualityComparesAllCarriedParameters) {
  EXPECT_EQ(SchedulerSpec::fifo(), SchedulerSpec(SchedulerKind::kFifo));
  EXPECT_NE(SchedulerSpec::fixed_delta(1.0), SchedulerSpec::fixed_delta(2.0));
  EXPECT_NE(SchedulerSpec::edf(1.0, 10.0), SchedulerSpec::edf(1.0, 20.0));
  // Kind-only comparison keeps the deprecated enum spelling working.
  EXPECT_TRUE(SchedulerSpec::edf(3.0, 4.0) == SchedulerKind::kEdf);
}

TEST(SchedulerSpec, ToDeltaMatrixMatchesTheNamedConstructions) {
  const std::size_t n = 3, analyzed = 0;
  const DeltaMatrix fifo = SchedulerSpec::fifo().to_delta_matrix(n, analyzed);
  const DeltaMatrix bmux = SchedulerSpec::bmux().to_delta_matrix(n, analyzed);
  const DeltaMatrix sp = SchedulerSpec::sp_high().to_delta_matrix(n, analyzed);
  const DeltaMatrix off =
      SchedulerSpec::fixed_delta(4.0).to_delta_matrix(n, analyzed);
  const DeltaMatrix edf =
      SchedulerSpec::edf(1.0, 10.0).to_delta_matrix(n, analyzed, 2.0);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_EQ(fifo.at(analyzed, k), 0.0);
    EXPECT_EQ(bmux.at(analyzed, k), kInf);
    EXPECT_EQ(sp.at(analyzed, k), -kInf);
    EXPECT_EQ(off.at(analyzed, k), 4.0);
    // Delta_{0,k} = d*_0 - d*_k = (1 - 10) * 2.
    EXPECT_DOUBLE_EQ(edf.at(analyzed, k), -18.0);
  }
  EXPECT_EQ(fifo.at(analyzed, analyzed), 0.0);  // locally FIFO diagonal
}

// ----- name registry -------------------------------------------------------

TEST(SchedulerRegistry, EveryRegisteredNameRoundTrips) {
  // Every kind: name -> kind -> name, and spec -> string -> spec.
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kBmux, SchedulerKind::kSpHigh,
        SchedulerKind::kEdf, SchedulerKind::kDelta, SchedulerKind::kGps,
        SchedulerKind::kDrr, SchedulerKind::kSced}) {
    const std::string_view name = scheduler_kind_name(kind);
    EXPECT_FALSE(name.empty());
    SchedulerKind back{};
    ASSERT_TRUE(scheduler_kind_from_name(name, back)) << name;
    EXPECT_EQ(back, kind);
  }
  for (const SchedulerSpec& spec :
       {SchedulerSpec::fifo(), SchedulerSpec::bmux(), SchedulerSpec::sp_high(),
        SchedulerSpec::edf(), SchedulerSpec::fixed_delta(0.0),
        SchedulerSpec::fixed_delta(2.5), SchedulerSpec::fixed_delta(kInf),
        SchedulerSpec::fixed_delta(-kInf), SchedulerSpec::gps(),
        SchedulerSpec::gps(3.0, 1.0), SchedulerSpec::drr(),
        SchedulerSpec::drr(2.0, 0.5),
        SchedulerSpec::gps(ClassWeights::of({1.0, 2.0, 3.0})),
        SchedulerSpec::sced()}) {
    const std::string text = to_string(spec);
    SchedulerSpec back;
    ASSERT_TRUE(parse_scheduler(text, back)) << text;
    EXPECT_EQ(back, spec) << text;
  }
  // The usage string mentions every registered family.
  const std::string usage = scheduler_usage_names();
  for (const SchedulerKind kind :
       {SchedulerKind::kFifo, SchedulerKind::kBmux, SchedulerKind::kSpHigh,
        SchedulerKind::kEdf, SchedulerKind::kGps, SchedulerKind::kDrr,
        SchedulerKind::kSced}) {
    EXPECT_NE(usage.find(scheduler_kind_name(kind)), std::string::npos);
  }
}

TEST(SchedulerRegistry, ParseRejectsUnknownAndMalformedNames) {
  SchedulerSpec out = SchedulerSpec::bmux();
  EXPECT_FALSE(parse_scheduler("scfq", out));  // lowers via gps weights
  EXPECT_FALSE(parse_scheduler("FIFO", out));
  EXPECT_FALSE(parse_scheduler("", out));
  EXPECT_FALSE(parse_scheduler("delta", out));       // bare: no offset
  EXPECT_FALSE(parse_scheduler("delta:", out));
  EXPECT_FALSE(parse_scheduler("delta:nan", out));   // NaN never compares
  EXPECT_FALSE(parse_scheduler("delta:1x", out));
  EXPECT_FALSE(parse_scheduler("gps:", out));
  EXPECT_FALSE(parse_scheduler("gps:1", out));       // one class is no split
  EXPECT_FALSE(parse_scheduler("gps:0,1", out));     // weights must be > 0
  EXPECT_FALSE(parse_scheduler("gps:-1,1", out));
  EXPECT_FALSE(parse_scheduler("gps:1,nan", out));
  EXPECT_FALSE(parse_scheduler("gps:1,inf", out));
  EXPECT_FALSE(parse_scheduler("drr:1,2,", out));    // trailing comma
  EXPECT_FALSE(parse_scheduler("drr:1,2x", out));
  EXPECT_FALSE(parse_scheduler("gps:1,2,3,4,5,6,7,8,9", out));  // > max
  EXPECT_FALSE(parse_scheduler("sced:1", out));      // sced has no params
  EXPECT_FALSE(parse_scheduler("fifo:1", out));
  EXPECT_EQ(out, SchedulerSpec::bmux());  // rejects leave `out` untouched
}

TEST(SchedulerRegistry, NumberGrammarIsStrictAndLocaleIndependent) {
  // The spec grammar is exactly what std::from_chars accepts: no
  // leading whitespace, no '+' sign, no hexfloat -- the lenient strtod
  // grammar silently read "gps: 2,1" as 2 and "gps:0x2,1" as 2.
  SchedulerSpec out = SchedulerSpec::bmux();
  EXPECT_FALSE(parse_scheduler("gps: 2,1", out));
  EXPECT_FALSE(parse_scheduler("gps:2, 1", out));
  EXPECT_FALSE(parse_scheduler("gps:+2,1", out));
  EXPECT_FALSE(parse_scheduler("gps:0x2,1", out));
  EXPECT_FALSE(parse_scheduler("drr:0X1p2,1", out));
  EXPECT_FALSE(parse_scheduler("delta: 1", out));
  EXPECT_FALSE(parse_scheduler("delta:0x10", out));
  EXPECT_FALSE(parse_scheduler("delta:+1", out));
  EXPECT_EQ(out, SchedulerSpec::bmux());
  ASSERT_TRUE(parse_scheduler("gps:1.5,1", out));
  EXPECT_EQ(out, SchedulerSpec::gps(1.5, 1.0));
  ASSERT_TRUE(parse_scheduler("drr:2e-1,1", out));
  EXPECT_EQ(out, SchedulerSpec::drr(0.2, 1.0));
  ASSERT_TRUE(parse_scheduler("delta:-2.5", out));
  EXPECT_EQ(out, SchedulerSpec::fixed_delta(-2.5));
}

TEST(SchedulerRegistry, ListParseRejectsStrictGrammarViolationsToo) {
  // --sweep axis lists route through parse_scheduler_list; a sloppy
  // token must fail the whole list, not silently mis-parse.
  std::vector<SchedulerSpec> specs;
  EXPECT_FALSE(parse_scheduler_list("fifo,gps: 2,1", specs));
  EXPECT_FALSE(parse_scheduler_list("fifo,gps:0x2,1", specs));
  EXPECT_FALSE(parse_scheduler_list("delta:+1,fifo", specs));
  ASSERT_TRUE(parse_scheduler_list("fifo,gps:1.5,1,drr:2e-1,1,sced", specs));
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[1], SchedulerSpec::gps(1.5, 1.0));
  EXPECT_EQ(specs[2], SchedulerSpec::drr(0.2, 1.0));
}

TEST(SchedulerRegistry, ParseStrictDoubleMatchesTheFromCharsGrammar) {
  double v = 0.0;
  EXPECT_TRUE(parse_strict_double("2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(parse_strict_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_TRUE(parse_strict_double("inf", v));  // callers range-check
  EXPECT_FALSE(parse_strict_double("", v));
  EXPECT_FALSE(parse_strict_double(" 2", v));
  EXPECT_FALSE(parse_strict_double("2 ", v));
  EXPECT_FALSE(parse_strict_double("+2", v));
  EXPECT_FALSE(parse_strict_double("0x2", v));
  EXPECT_FALSE(parse_strict_double("1,5", v));  // no locale decimal comma
  EXPECT_FALSE(parse_strict_double("2abc", v));
}

TEST(SchedulerRegistry, BareGpsAndDrrMeanTheEqualTwoClassSplit) {
  SchedulerSpec out;
  ASSERT_TRUE(parse_scheduler("gps", out));
  EXPECT_EQ(out, SchedulerSpec::gps(1.0, 1.0));
  ASSERT_TRUE(parse_scheduler("drr", out));
  EXPECT_EQ(out, SchedulerSpec::drr(1.0, 1.0));
  ASSERT_TRUE(parse_scheduler("sced", out));
  EXPECT_EQ(out, SchedulerSpec::sced());
}

TEST(SchedulerRegistry, ListParseUsesMaximalMunchAcrossWeightCommas) {
  std::vector<SchedulerSpec> specs;
  ASSERT_TRUE(parse_scheduler_list("fifo,gps:1,2,edf", specs));
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], SchedulerSpec::fifo());
  EXPECT_EQ(specs[1], SchedulerSpec::gps(1.0, 2.0));
  EXPECT_EQ(specs[2], SchedulerSpec::edf());

  ASSERT_TRUE(parse_scheduler_list("gps,drr:4,2,1,sced", specs));
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0], SchedulerSpec::gps());
  EXPECT_EQ(specs[1], SchedulerSpec::drr(ClassWeights::of({4.0, 2.0, 1.0})));
  EXPECT_EQ(specs[2], SchedulerSpec::sced());

  const std::vector<SchedulerSpec> before = specs;
  EXPECT_FALSE(parse_scheduler_list("fifo,,bmux", specs));
  EXPECT_FALSE(parse_scheduler_list("gps:1,nope", specs));
  EXPECT_FALSE(parse_scheduler_list("", specs));
  EXPECT_EQ(specs, before);  // rejects leave `out` untouched
}

TEST(SchedulerRegistry, DescriptionsNameTheFamily) {
  EXPECT_NE(scheduler_description(SchedulerSpec::edf(1.0, 10.0)).find("EDF"),
            std::string::npos);
  EXPECT_NE(scheduler_description(SchedulerSpec::fixed_delta(2.0)).find("2"),
            std::string::npos);
}

TEST(SchedulerSpec, ClassOffsetsDifferByExactlyTheDeltaTerm) {
  // The offsets both simulators run for every Delta-kind: by Def. 1 only
  // their difference matters, and it is the Delta term, +/-inf included.
  const ClassOffsets edf = SchedulerSpec::edf(1.0, 10.0).class_offsets(5.0);
  EXPECT_EQ(edf.through, 5.0);
  EXPECT_EQ(edf.cross, 50.0);
  for (const SchedulerSpec& spec :
       {SchedulerSpec::fifo(), SchedulerSpec::bmux(), SchedulerSpec::sp_high(),
        SchedulerSpec::edf(1.0, 10.0), SchedulerSpec::edf(2.0, 3.0),
        SchedulerSpec::fixed_delta(3.5), SchedulerSpec::fixed_delta(-1.25),
        SchedulerSpec::fixed_delta(0.0), SchedulerSpec::fixed_delta(kInf),
        SchedulerSpec::fixed_delta(-kInf)}) {
    const ClassOffsets o = spec.class_offsets(4.0);
    EXPECT_EQ(o.through - o.cross, spec.delta_term(4.0)) << to_string(spec);
  }
  // A static Delta sits on one class, the other at 0.
  const auto offsets = [](const SchedulerSpec& spec) {
    const ClassOffsets o = spec.class_offsets(4.0);
    return std::pair{o.through, o.cross};
  };
  EXPECT_EQ(offsets(SchedulerSpec::fifo()), std::pair(0.0, 0.0));
  EXPECT_EQ(offsets(SchedulerSpec::bmux()), std::pair(kInf, 0.0));
  EXPECT_EQ(offsets(SchedulerSpec::sp_high()), std::pair(0.0, kInf));
  EXPECT_EQ(offsets(SchedulerSpec::fixed_delta(3.5)), std::pair(3.5, 0.0));
  EXPECT_EQ(offsets(SchedulerSpec::fixed_delta(-1.25)), std::pair(0.0, 1.25));
  // A NaN Delta stays NaN, so the Delta-key factories can refuse it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      std::isnan(SchedulerSpec::fixed_delta(nan).class_offsets(1.0).cross));
}

TEST(SchedulerSpec, CurveBackedKindsRefuseTheDeltaObservers) {
  for (const SchedulerSpec& spec :
       {SchedulerSpec::gps(), SchedulerSpec::drr(), SchedulerSpec::sced()}) {
    EXPECT_TRUE(spec.is_curve_backed()) << to_string(spec);
    EXPECT_FALSE(spec.needs_fixed_point()) << to_string(spec);
    EXPECT_FALSE(spec.static_delta().has_value()) << to_string(spec);
    EXPECT_TRUE(std::isnan(spec.delta_term(1.0))) << to_string(spec);
    EXPECT_THROW((void)spec.to_delta_matrix(2, 0), std::invalid_argument);
  }
  EXPECT_FALSE(SchedulerSpec::fifo().is_curve_backed());
  EXPECT_FALSE(SchedulerSpec::edf().is_curve_backed());
}

TEST(SchedulerSpec, RateLatencyIsTheClosedFormOfEachKind) {
  // C = 100.  GPS and DRR take the through weight's share of the link
  // (class 0 of the list); DRR waits one round of the other quanta, kb
  // at rate C; SCED splits the link by load, and gives all of it when
  // nothing is offered.  The Delta-kinds have no closed form.
  const std::optional<RateLatency> none;
  const struct {
    SchedulerSpec spec;
    ClassLoads loads;
    std::optional<RateLatency> want;
  } cases[] = {
      {SchedulerSpec::fifo(), {}, none},
      {SchedulerSpec::bmux(), {}, none},
      {SchedulerSpec::sp_high(), {}, none},
      {SchedulerSpec::edf(), {}, none},
      {SchedulerSpec::fixed_delta(1.0), {}, none},
      {SchedulerSpec::gps(3.0, 1.0), {}, RateLatency{75.0, 0.0}},
      {SchedulerSpec::gps(ClassWeights::of({1.0, 2.0, 1.0})), {},
       RateLatency{25.0, 0.0}},
      {SchedulerSpec::drr(2.0, 1.0), {},
       RateLatency{2.0 / 3.0 * 100.0, 1.0 / 100.0}},
      {SchedulerSpec::drr(ClassWeights::of({2.0, 1.0, 1.0})), {},
       RateLatency{50.0, 2.0 / 100.0}},
      {SchedulerSpec::sced(), {30.0, 70.0}, RateLatency{30.0, 0.0}},
      {SchedulerSpec::sced(), {}, RateLatency{100.0, 0.0}},
  };
  for (const auto& c : cases) {
    const std::optional<RateLatency> got = c.spec.rate_latency(100.0, c.loads);
    ASSERT_EQ(got.has_value(), c.want.has_value()) << to_string(c.spec);
    if (!got) continue;
    EXPECT_DOUBLE_EQ(got->rate, c.want->rate) << to_string(c.spec);
    EXPECT_DOUBLE_EQ(got->latency, c.want->latency) << to_string(c.spec);
  }
}

// The service curve each curve-backed kind provides, one kind at a
// time: GPS arXiv:1804.08034, fluid DRR arXiv:2503.23366, fluid SCED
// arXiv:1804.08040.
TEST(ServiceCurveProvider, GpsIsTheWeightShareOfTheLink) {
  const auto rl = SchedulerSpec::gps(3.0, 1.0).rate_latency(100.0);
  ASSERT_TRUE(rl.has_value());
  EXPECT_DOUBLE_EQ(rl->rate, 75.0);
  EXPECT_EQ(rl->latency, 0.0);

  // Multi-class: the through class is always index 0 of the weight list.
  const auto rl3 =
      SchedulerSpec::gps(ClassWeights::of({1.0, 2.0, 1.0})).rate_latency(100.0);
  ASSERT_TRUE(rl3.has_value());
  EXPECT_DOUBLE_EQ(rl3->rate, 25.0);
  EXPECT_EQ(rl3->latency, 0.0);
}

TEST(ServiceCurveProvider, DrrAddsOneRoundOfCrossQuantaAsLatency) {
  const auto rl = SchedulerSpec::drr(2.0, 1.0).rate_latency(100.0);
  ASSERT_TRUE(rl.has_value());
  EXPECT_DOUBLE_EQ(rl->rate, 100.0 * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(rl->latency, 1.0 / 100.0);

  const auto rl3 =
      SchedulerSpec::drr(ClassWeights::of({2.0, 1.0, 1.0})).rate_latency(100.0);
  ASSERT_TRUE(rl3.has_value());
  EXPECT_DOUBLE_EQ(rl3->rate, 50.0);
  EXPECT_DOUBLE_EQ(rl3->latency, 2.0 / 100.0);
}

TEST(ServiceCurveProvider, ScedIsLoadProportionalAndFullLinkWhenIdle) {
  const SchedulerSpec sced = SchedulerSpec::sced();
  const auto rl = sced.rate_latency(100.0, ClassLoads{30.0, 70.0});
  ASSERT_TRUE(rl.has_value());
  EXPECT_DOUBLE_EQ(rl->rate, 30.0);
  EXPECT_EQ(rl->latency, 0.0);

  // Nothing competes: the whole link is the guarantee.
  const auto idle = sced.rate_latency(100.0, ClassLoads{});
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(idle->rate, 100.0);

  EXPECT_THROW((void)sced.rate_latency(100.0, ClassLoads{-1.0, 1.0}),
               std::invalid_argument);
}

TEST(SchedulerSpec, RateLatencyRejectsMalformedCapacityAndLoads) {
  for (const SchedulerSpec& spec :
       {SchedulerSpec::gps(), SchedulerSpec::drr(), SchedulerSpec::sced()}) {
    for (const double capacity : {0.0, -5.0, kInf}) {
      EXPECT_THROW((void)spec.rate_latency(capacity), std::invalid_argument)
          << to_string(spec) << " C=" << capacity;
    }
  }
  const SchedulerSpec sced = SchedulerSpec::sced();
  EXPECT_THROW((void)sced.rate_latency(100.0, {-1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)sced.rate_latency(100.0, {1.0, -1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)sced.rate_latency(100.0, {kInf, 1.0}),
               std::invalid_argument);
}

TEST(SchedulerSpec, ClassWeightsClampInvalidListsToTheDefaultSplit) {
  EXPECT_EQ(ClassWeights::of({2.0}), ClassWeights{});
  EXPECT_EQ(ClassWeights::of({0.0, 1.0}), ClassWeights{});
  EXPECT_EQ(ClassWeights::of({1.0, kInf}), ClassWeights{});
  const ClassWeights w = ClassWeights::of({4.0, 2.0, 2.0});
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.through(), 4.0);
  EXPECT_DOUBLE_EQ(w.total(), 8.0);
  EXPECT_DOUBLE_EQ(w.cross_total(), 4.0);
  EXPECT_DOUBLE_EQ(w.through_share(), 0.5);
}

}  // namespace
}  // namespace deltanc::sched
