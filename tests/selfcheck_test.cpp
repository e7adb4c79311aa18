#include "core/selfcheck.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/scenario.h"
#include "e2e/solver.h"

namespace deltanc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SelfCheckOptions quiet_options() {
  SelfCheckOptions options;
  options.threads = 2;
  return options;
}

TEST(SelfCheck, Fig2OperatingPointsPassAllInvariants) {
  // A slice of the Fig. 2 grid: utilization axis x all four schedulers.
  // Ordering, monotonicity in the load, method agreement, finiteness.
  SweepGrid grid(ScenarioBuilder()
                     .hops(5)
                     .through_flows(100)
                     .violation_probability(1e-9)
                     .edf_deadlines(1.0, 10.0)
                     .build());
  grid.cross_utilization_axis({0.05, 0.35, 0.65})
      .scheduler_axis({sched::SchedulerKind::kSpHigh, sched::SchedulerKind::kEdf,
                       sched::SchedulerKind::kFifo, sched::SchedulerKind::kBmux});
  const SelfCheckReport report = self_check(grid, quiet_options());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().detail);
  EXPECT_EQ(report.points, 24u);  // 12 scenarios x 2 methods
  EXPECT_GT(report.checks, 24u);
}

TEST(SelfCheck, Fig3MixPointsOrderTheEdfVariants) {
  // The Fig. 3 columns at one mix point: the two EDF deadline settings
  // must slot between SP-high and BMUX in resolved-Delta order.
  std::vector<e2e::Scenario> scenarios;
  struct Column {
    sched::SchedulerKind sched;
    double own, cross;
  };
  for (const Column& col : {Column{sched::SchedulerKind::kEdf, 1.0, 2.0},
                            Column{sched::SchedulerKind::kFifo, 1.0, 1.0},
                            Column{sched::SchedulerKind::kEdf, 1.0, 0.5},
                            Column{sched::SchedulerKind::kBmux, 1.0, 1.0}}) {
    scenarios.push_back(ScenarioBuilder()
                            .hops(2)
                            .through_utilization(0.25)
                            .cross_utilization(0.25)
                            .violation_probability(1e-9)
                            .scheduler(col.sched)
                            .edf_deadlines(col.own, col.cross)
                            .build());
  }
  const SelfCheckReport report =
      self_check(std::span<const e2e::Scenario>(scenarios), quiet_options());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().detail);
}

TEST(SelfCheck, MonotoneInEpsilonAndHops) {
  SweepGrid grid(ScenarioBuilder()
                     .hops(2)
                     .through_flows(100)
                     .cross_flows(200)
                     .build());
  grid.hops_axis({1, 3, 6}).epsilon_axis({1e-9, 1e-6, 1e-3});
  const SelfCheckReport report = self_check(grid, quiet_options());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().detail);
}

TEST(SelfCheck, SingleScenarioExpandsAllSchedulers) {
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(4)
                               .through_flows(150)
                               .cross_flows(150)
                               .build();
  const SelfCheckReport report = self_check(sc, quiet_options());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.points, 8u);  // 4 schedulers x 2 methods
}

TEST(SelfCheck, UnstablePointsPassWhenClassified) {
  // Overloaded scenarios must report +inf (classified kUnstable), which
  // satisfies the finiteness check rather than tripping it.
  SweepGrid grid(ScenarioBuilder().through_flows(100).build());
  grid.cross_utilization_axis({0.5, 0.9, 1.3});
  const SelfCheckReport report = self_check(grid, quiet_options());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().detail);
}

TEST(SelfCheck, DetectsOrderingViolation) {
  // A broken solver whose bounds *decrease* with Delta: SP-high above
  // FIFO above BMUX.  The ordering check must flag it.
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario& sc, e2e::Method) {
    double delta = 0.0, delay = 5.0;
    if (sc.scheduler == sched::SchedulerKind::kSpHigh) delta = -kInf, delay = 10.0;
    if (sc.scheduler == sched::SchedulerKind::kBmux) delta = kInf, delay = 1.0;
    return e2e::BoundResult{delay, 0.5, 0.5, 1.0, delta};
  };
  const e2e::Scenario sc = ScenarioBuilder().build();
  const SelfCheckReport report = self_check(sc, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues.front().check, "ordering");
}

TEST(SelfCheck, DetectsNaNResults) {
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario&, e2e::Method) {
    return e2e::BoundResult{std::nan(""), 0.5, 0.5, 1.0, 0.0};
  };
  const SelfCheckReport report =
      self_check(ScenarioBuilder().build(), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues.front().check, "finiteness");
}

TEST(SelfCheck, DetectsMonotonicityViolation) {
  // Delay shrinking as the path grows is impossible; inject it.
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario& sc, e2e::Method) {
    return e2e::BoundResult{100.0 / sc.hops, 0.5, 0.5, 1.0, 0.0};
  };
  SweepGrid grid(ScenarioBuilder().build());
  grid.hops_axis({1, 2, 4});
  const SelfCheckReport report = self_check(grid, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.issues.front().check, "monotonicity");
}

/// Number of issues of kind `check`; every other issue counts into
/// `*others`.
std::size_t count_issues(const SelfCheckReport& report, const char* check,
                         std::size_t* others) {
  std::size_t n = 0;
  for (const SelfCheckIssue& issue : report.issues) {
    (issue.check == check ? n : *others) += 1;
  }
  return n;
}

TEST(SelfCheck, DetectsThrowingSolver) {
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario&, e2e::Method) -> e2e::BoundResult {
    throw std::runtime_error("injected failure");
  };
  const SelfCheckReport report =
      self_check(ScenarioBuilder().build(), options);
  std::size_t others = 0;
  EXPECT_EQ(count_issues(report, "solve", &others), 4u);  // one per scheduler
  EXPECT_EQ(others, 0u);
}

TEST(SelfCheck, DetectsDeltaEndpointMismatch) {
  // A synthetic solver monotone in Delta, hops, load and 1/epsilon --
  // so the figure grids pass every ordering law -- whose answer at an
  // explicit Delta = 0 sits one ulp above its FIFO answer: within every
  // tolerance, but not bit-identical.
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario& sc, e2e::Method) {
    const double delta = sc.scheduler.static_delta().value_or(
        sc.scheduler.edf_factors().own_factor -
        sc.scheduler.edf_factors().cross_factor);
    double delay = sc.hops * (1.0 + sc.utilization()) *
                   (2.0 + std::atan(delta)) *
                   (1.0 - std::log10(sc.epsilon) / 10.0);
    if (sc.utilization() >= 1.0) delay = kInf;
    if (sc.scheduler == sched::SchedulerKind::kDelta &&
        sc.scheduler.delta() == 0.0) {
      delay = std::nextafter(delay, kInf);
    }
    return e2e::BoundResult{delay, 0.5, 0.5, 1.0, delta};
  };
  const SelfCheckReport report = self_check_figures(options);
  std::size_t others = 0;
  // One Delta = 0 endpoint per Fig. 2 load point (16) and path (3).
  EXPECT_EQ(count_issues(report, "delta-endpoint", &others), 48u);
  EXPECT_EQ(others, 0u) << report.issues.front().detail;
}

TEST(SelfCheck, DetectsCurveOrderingViolation) {
  // Swapping the answers of gps(2,1) and gps(4,1) makes the larger
  // through share bound above the smaller one.
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario& sc, e2e::Method method) {
    e2e::Scenario swapped = sc;
    if (sc.scheduler == sched::SchedulerSpec::gps(2.0, 1.0)) {
      swapped.scheduler = sched::SchedulerSpec::gps(4.0, 1.0);
    } else if (sc.scheduler == sched::SchedulerSpec::gps(4.0, 1.0)) {
      swapped.scheduler = sched::SchedulerSpec::gps(2.0, 1.0);
    }
    return Solver(method).solve(swapped);
  };
  const SelfCheckReport report = self_check_curve_backed(options);
  std::size_t others = 0;
  // One gps(4,1)-vs-gps(2,1) comparison per operating point (3 H x 3 U).
  EXPECT_EQ(count_issues(report, "curve-ordering", &others), 9u);
  EXPECT_EQ(others, 0u) << report.issues.front().detail;
}

TEST(SelfCheck, DetectsLostGpsIsolation) {
  // +inf for GPS whenever the link is overloaded, whatever the share.
  SelfCheckOptions options = quiet_options();
  options.solver = [](const e2e::Scenario& sc, e2e::Method method) {
    if (sc.scheduler == sched::SchedulerKind::kGps &&
        sc.utilization() >= 1.0) {
      return e2e::BoundResult{kInf, 0.5, 0.5, 1.0, 0.0};
    }
    return Solver(method).solve(sc);
  };
  const SelfCheckReport report = self_check_curve_backed(options);
  std::size_t others = 0;
  EXPECT_EQ(count_issues(report, "isolation", &others), 3u);  // H = 2, 5, 10
  EXPECT_EQ(others, 0u) << report.issues.front().detail;
}

TEST(SelfCheck, CurveBackedBatteryPasses) {
  // GPS/DRR/SCED orderings + the isolation pair; all invariants hold on
  // the real solver.
  const SelfCheckReport report = self_check_curve_backed(quiet_options());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().detail);
  EXPECT_GT(report.points, 0u);
  EXPECT_GT(report.checks, report.points);
}

TEST(SelfCheck, CurveBackedPointsPassTheGenericChecks) {
  // A mixed grid: curve-backed specs carry a NaN Delta by contract, and
  // GPS isolation keeps bounds finite at overload -- the point checks
  // must accept both, and the Delta-ordering check must skip the specs
  // that have no Delta coordinate.
  SweepGrid grid(ScenarioBuilder().through_flows(100).build());
  grid.cross_utilization_axis({0.5, 0.9, 1.3})
      .scheduler_axis(std::vector<sched::SchedulerSpec>{
          sched::SchedulerSpec(sched::SchedulerKind::kFifo),
          sched::SchedulerSpec::gps(3.0, 1.0), sched::SchedulerSpec::sced()});
  const SelfCheckReport report = self_check(grid, quiet_options());
  EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                   ? ""
                                   : report.issues.front().detail);
}

TEST(SelfCheck, ReportsMergeWithPlusEquals) {
  SelfCheckReport a, b;
  a.points = 3;
  a.checks = 10;
  b.points = 2;
  b.checks = 4;
  b.issues.push_back(SelfCheckIssue{"ordering", "x"});
  a += b;
  EXPECT_EQ(a.points, 5u);
  EXPECT_EQ(a.checks, 14u);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.summary(), "5 points, 14 checks, 1 issue(s)");
}

}  // namespace
}  // namespace deltanc
