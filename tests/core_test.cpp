#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/analyzer.h"
#include "core/scenario.h"
#include "core/table.h"
#include "e2e/solver.h"

namespace deltanc {
namespace {

TEST(ScenarioBuilder, FluentConstruction) {
  const e2e::Scenario sc = ScenarioBuilder()
                               .capacity_mbps(100.0)
                               .hops(5)
                               .through_flows(100)
                               .cross_flows(200)
                               .violation_probability(1e-6)
                               .scheduler(sched::SchedulerKind::kEdf)
                               .edf_deadlines(1.0, 10.0)
                               .build();
  EXPECT_EQ(sc.hops, 5);
  EXPECT_EQ(sc.n_through, 100);
  EXPECT_EQ(sc.n_cross, 200);
  EXPECT_DOUBLE_EQ(sc.epsilon, 1e-6);
  EXPECT_EQ(sc.scheduler, sched::SchedulerKind::kEdf);
  EXPECT_DOUBLE_EQ(sc.scheduler.edf_factors().cross_factor, 10.0);
}

TEST(ScenarioBuilder, UtilizationToFlowCount) {
  // The paper: N = 100 paper flows is ~15% of a 100 Mbps link.
  const e2e::Scenario sc =
      ScenarioBuilder().through_utilization(0.15).cross_utilization(0.35).build();
  EXPECT_NEAR(sc.n_through, 100, 2);
  EXPECT_NEAR(sc.n_cross, 235, 3);
  EXPECT_NEAR(sc.utilization(), 0.50, 0.01);
}

TEST(ScenarioBuilder, Validation) {
  // Setters only store; build() validates everything in one pass.
  EXPECT_THROW((void)ScenarioBuilder().capacity_mbps(0.0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioBuilder().hops(0).build(), std::invalid_argument);
  EXPECT_THROW((void)ScenarioBuilder().through_flows(0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioBuilder().cross_flows(-1).build(),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioBuilder().violation_probability(1.0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioBuilder().edf_deadlines(0.0, 1.0).build(),
               std::invalid_argument);
}

TEST(ScenarioBuilder, BuildErrorNamesEveryBadField) {
  const ScenarioBuilder builder = ScenarioBuilder()
                                      .capacity_mbps(-5.0)
                                      .hops(0)
                                      .violation_probability(2.0);
  try {
    (void)builder.build();
    FAIL() << "build() accepted a triply-malformed scenario";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("capacity"), std::string::npos) << what;
    EXPECT_NE(what.find("hops"), std::string::npos) << what;
    EXPECT_NE(what.find("epsilon"), std::string::npos) << what;
  }
  const diag::ValidationReport report = builder.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 3u);
}

TEST(ScenarioBuilder, FlowsForUtilizationRejectsNonFinite) {
  const e2e::Scenario sc = ScenarioBuilder().build();
  EXPECT_THROW((void)flows_for_utilization(sc, -0.1), std::invalid_argument);
  EXPECT_THROW(
      (void)flows_for_utilization(sc, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      (void)flows_for_utilization(sc, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_THROW((void)flows_for_utilization(sc, 1e18), std::invalid_argument);
  EXPECT_EQ(flows_for_utilization(sc, 0.0), 0);
}

TEST(TableFormat, AlignedAndCsv) {
  Table t({"H", "FIFO", "BMUX"});
  t.add_row("2", {33.20, 52.65});
  t.add_row({"5", "x", "y"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream aligned;
  t.print(aligned);
  EXPECT_NE(aligned.str().find("FIFO"), std::string::npos);
  EXPECT_NE(aligned.str().find("33.20"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("2,33.20,52.65"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "short"}), std::invalid_argument);
  EXPECT_EQ(Table::format(std::numeric_limits<double>::infinity()), "inf");
}

TEST(TableFormat, NonFiniteValuesAreNamedCorrectly) {
  EXPECT_EQ(Table::format(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Table::format(-std::numeric_limits<double>::infinity()), "-inf");
  // Regression: NaN compares false against everything, so the old sign
  // test printed it as "-inf".
  EXPECT_EQ(Table::format(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(Table::format(-std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(TableFormat, CsvQuotesSeparatorsQuotesAndNewlines) {
  Table t({"name", "value"});
  t.add_row({"plain", "1.0"});
  t.add_row({"with, comma", "a\"b"});
  t.add_row({"multi\nline", "cr\rcell"});
  std::ostringstream csv;
  t.print_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("plain,1.0\n"), std::string::npos);        // untouched
  EXPECT_NE(text.find("\"with, comma\",\"a\"\"b\"\n"), std::string::npos);
  EXPECT_NE(text.find("\"multi\nline\",\"cr\rcell\"\n"), std::string::npos);
}

TEST(PathAnalyzer, BoundMatchesDirectCall) {
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(3)
                               .through_flows(100)
                               .cross_flows(150)
                               .scheduler(sched::SchedulerKind::kFifo)
                               .build();
  const PathAnalyzer analyzer(sc);
  const e2e::BoundResult direct = deltanc::Solver().solve(sc);
  const e2e::BoundResult via = analyzer.bound();
  EXPECT_DOUBLE_EQ(via.delay_ms, direct.delay_ms);
}

TEST(PathAnalyzer, AdditiveBoundIsLooser) {
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(6)
                               .through_flows(150)
                               .cross_flows(150)
                               .scheduler(sched::SchedulerKind::kBmux)
                               .build();
  const PathAnalyzer analyzer(sc);
  EXPECT_GT(analyzer.additive_bound().delay_ms, analyzer.bound().delay_ms);
}

TEST(PathAnalyzer, SimulationRespectsScheduler) {
  const auto base = ScenarioBuilder().hops(2).through_flows(250).cross_flows(
      250);
  PathAnalyzer low(ScenarioBuilder(base).scheduler(sched::SchedulerKind::kBmux)
                       .build());
  PathAnalyzer high(
      ScenarioBuilder(base).scheduler(sched::SchedulerKind::kSpHigh).build());
  const auto r_low = low.simulate(60000, 3);
  const auto r_high = high.simulate(60000, 3);
  EXPECT_GT(r_low.through_delay.quantile(0.999),
            r_high.through_delay.quantile(0.999));
}

// ---------------------------------------------------------------------
// The headline integration check: the analytic bound must dominate the
// simulated delay quantile at the same violation level, for every
// scheduler.
// ---------------------------------------------------------------------

class BoundDominatesSimulation
    : public ::testing::TestWithParam<sched::SchedulerKind> {};

TEST_P(BoundDominatesSimulation, EmpiricalQuantileBelowBound) {
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(3)
                               .through_flows(250)
                               .cross_flows(250)
                               .scheduler(GetParam())
                               .build();
  const PathAnalyzer analyzer(sc);
  const ValidationReport report = analyzer.validate(250000, 11);
  ASSERT_GT(report.samples, 10000u);
  EXPECT_TRUE(report.bound_holds)
      << "empirical " << report.empirical_quantile << " vs bound at eps="
      << report.epsilon_sim;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, BoundDominatesSimulation,
                         ::testing::Values(sched::SchedulerKind::kFifo,
                                           sched::SchedulerKind::kBmux,
                                           sched::SchedulerKind::kSpHigh,
                                           sched::SchedulerKind::kEdf));

TEST(PathAnalyzer, ValidationReportIsCoherent) {
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(2)
                               .through_flows(100)
                               .cross_flows(100)
                               .scheduler(sched::SchedulerKind::kFifo)
                               .build();
  const ValidationReport r = PathAnalyzer(sc).validate(50000, 5);
  EXPECT_GE(r.empirical_max, r.empirical_quantile);
  EXPECT_GT(r.epsilon_sim, 0.0);
  EXPECT_LE(r.epsilon_sim, 0.5);
  // The scenario's own (deeper) epsilon gives a finite bound no smaller
  // than the one compared at epsilon_sim.
  const double bound = Solver().solve(sc).delay_ms;
  EXPECT_TRUE(std::isfinite(bound));
  EXPECT_GE(bound, r.bound_at_eps_sim);
}

TEST(PathAnalyzer, ValidationTakesTheEdfUnitFromAHeldBound) {
  // EDF deadlines are multiples of d_e2e / H.  A caller that already
  // holds the scenario's bound hands it over instead of having it
  // solved again; the simulation is the same either way.
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(2)
                               .through_flows(100)
                               .cross_flows(100)
                               .scheduler(sched::SchedulerKind::kEdf)
                               .build();
  const PathAnalyzer analyzer(sc);
  const e2e::BoundResult held = analyzer.bound();
  const ValidationReport a = analyzer.validate(50000, 5);
  const ValidationReport b = analyzer.validate(50000, 5, &held);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.empirical_quantile, b.empirical_quantile);
  EXPECT_EQ(a.empirical_max, b.empirical_max);
  EXPECT_EQ(a.bound_at_eps_sim, b.bound_at_eps_sim);
  // A held bound that is not finite cannot set the deadlines.
  e2e::BoundResult unstable = held;
  unstable.delay_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)analyzer.validate(50000, 5, &unstable),
               std::invalid_argument);
}

TEST(PathAnalyzer, ValidationReportCarriesTheComparedBound) {
  // The verdict compares the quantile with the bound at epsilon_sim, not
  // with `bound` (at the scenario's epsilon); the report carries that
  // bound.  drr:2,1 is a case whose verdict is "violated" (the slot
  // simulator's H-slot floor exceeds the fluid bound), so both verdicts
  // are exercised.
  for (const char* spec : {"fifo", "drr:2,1"}) {
    e2e::Scenario sc =
        ScenarioBuilder().hops(2).through_flows(100).cross_flows(100).build();
    ASSERT_TRUE(sched::parse_scheduler(spec, sc.scheduler));
    const ValidationReport r = PathAnalyzer(sc).validate(50000, 5);
    e2e::Scenario at_eps = sc;
    at_eps.epsilon = r.epsilon_sim;
    const double want = Solver().solve(at_eps).delay_ms;
    EXPECT_EQ(r.bound_at_eps_sim, want)
        << std::hexfloat << r.bound_at_eps_sim << " " << spec;
    EXPECT_NE(r.bound_at_eps_sim, Solver().solve(sc).delay_ms) << spec;
    EXPECT_EQ(r.bound_holds, r.empirical_quantile <= want + 1e-9) << spec;
  }
}

}  // namespace
}  // namespace deltanc
