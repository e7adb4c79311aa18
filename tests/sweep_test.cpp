// The parallel sweep engine (core/sweep.h) and its fan-out primitive
// (core/thread_pool.h): grid enumeration order, 1-thread vs N-thread
// determinism, the one chain executor's warm/cold contracts and its
// split of warm chains into segments,
// unstable/failing-point isolation, progress-callback contract, and
// degenerate (empty / single-point) grids.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "core/selfcheck.h"
#include "core/thread_pool.h"
#include "e2e/solver.h"

namespace deltanc {
namespace {

// A grid small enough for test time but heterogeneous enough to catch
// ordering bugs: 2 hops values x 3 schedulers x 2 cross loads = 12
// points.  A loose epsilon keeps each solve fast.
SweepGrid small_grid() {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.hops_axis({2, 5})
      .scheduler_axis({sched::SchedulerKind::kEdf, sched::SchedulerKind::kFifo,
                       sched::SchedulerKind::kBmux})
      .cross_utilization_axis({0.30, 0.60});
  return grid;
}

TEST(SweepGridTest, SizeIsCrossProductAndNoAxesMeansBaseOnly) {
  const SweepGrid grid = small_grid();
  EXPECT_EQ(grid.axes(), 3u);
  EXPECT_EQ(grid.axis_size(0), 2u);
  EXPECT_EQ(grid.axis_size(1), 3u);
  EXPECT_EQ(grid.axis_size(2), 2u);
  EXPECT_EQ(grid.size(), 12u);

  e2e::Scenario base;
  base.hops = 7;
  const SweepGrid trivial(base);
  ASSERT_EQ(trivial.size(), 1u);
  EXPECT_EQ(trivial.scenario_at(0).hops, 7);
}

TEST(SweepGridTest, EmptyAxisMakesGridEmpty) {
  SweepGrid grid;
  grid.hops_axis({});
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.scenarios().empty());
  EXPECT_THROW((void)grid.scenario_at(0), std::out_of_range);
}

TEST(SweepGridTest, RowMajorOrderFirstAxisOutermost) {
  const SweepGrid grid = small_grid();
  // i = hops_index * 6 + scheduler_index * 2 + load_index.
  const e2e::Scenario p0 = grid.scenario_at(0);
  EXPECT_EQ(p0.hops, 2);
  EXPECT_EQ(p0.scheduler, sched::SchedulerKind::kEdf);
  const e2e::Scenario p1 = grid.scenario_at(1);
  EXPECT_EQ(p1.hops, 2);
  EXPECT_EQ(p1.scheduler, sched::SchedulerKind::kEdf);
  EXPECT_GT(p1.n_cross, p0.n_cross);
  const e2e::Scenario p2 = grid.scenario_at(2);
  EXPECT_EQ(p2.scheduler, sched::SchedulerKind::kFifo);
  const e2e::Scenario p6 = grid.scenario_at(6);
  EXPECT_EQ(p6.hops, 5);
  EXPECT_EQ(p6.scheduler, sched::SchedulerKind::kEdf);
  // Axis values never leak between points.
  EXPECT_EQ(grid.scenario_at(11).hops, 5);
  EXPECT_EQ(grid.scenario_at(5).hops, 2);
}

TEST(SweepGridTest, UtilizationAxisMatchesScenarioBuilderConversion) {
  e2e::Scenario base;
  SweepGrid grid(base);
  grid.cross_utilization_axis({0.35});
  // 0.35 * 100 Mbps / mean_rate, rounded -- same as ScenarioBuilder.
  EXPECT_EQ(grid.scenario_at(0).n_cross, flows_for_utilization(base, 0.35));
}

TEST(SweepGridTest, LinspaceEndpointsAndSinglePoint) {
  const auto v = SweepGrid::linspace(0.2, 0.95, 16);
  ASSERT_EQ(v.size(), 16u);
  EXPECT_DOUBLE_EQ(v.front(), 0.2);
  EXPECT_DOUBLE_EQ(v.back(), 0.95);
  const auto one = SweepGrid::linspace(3.0, 9.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 3.0);
  EXPECT_THROW((void)SweepGrid::linspace(0.0, 1.0, 0), std::invalid_argument);
}

TEST(SweepGridTest, RejectsMalformedAxisValues) {
  SweepGrid grid;
  EXPECT_THROW(grid.hops_axis({0}), std::invalid_argument);
  EXPECT_THROW(grid.epsilon_axis({0.0}), std::invalid_argument);
  EXPECT_THROW(grid.through_flows_axis({0}), std::invalid_argument);
  EXPECT_THROW(grid.cross_utilization_axis({-0.1}), std::invalid_argument);
  EXPECT_THROW(
      grid.delta_axis({std::numeric_limits<double>::quiet_NaN()}),
      std::invalid_argument);
}

TEST(SweepGridTest, DeltaAxisMakesExplicitFixedDeltaSchedulers) {
  const double inf = std::numeric_limits<double>::infinity();
  e2e::Scenario base;
  base.scheduler = sched::SchedulerSpec::edf(2.0, 5.0);
  SweepGrid grid(base);
  grid.delta_axis({0.0, 1.5, inf, -inf});  // +/-inf are legal endpoints
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid.scenario_at(0).scheduler,
            sched::SchedulerSpec::fixed_delta(0.0));
  EXPECT_EQ(grid.scenario_at(1).scheduler,
            sched::SchedulerSpec::fixed_delta(1.5));
  EXPECT_EQ(grid.scenario_at(2).scheduler,
            sched::SchedulerSpec::fixed_delta(inf));
  EXPECT_EQ(grid.scenario_at(3).scheduler,
            sched::SchedulerSpec::fixed_delta(-inf));
  // A numeric axis under the "delta" name: warm chains may follow it.
  ASSERT_EQ(grid.axes(), 1u);
  EXPECT_EQ(grid.axis_name(0), "delta");
  EXPECT_TRUE(grid.axis_numeric(0));
}

TEST(SweepGridTest, CurveBackedSchedulerAxisCarriesTheFullSpec) {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.scheduler_axis(std::vector<sched::SchedulerSpec>{
      sched::SchedulerSpec::gps(3.0, 1.0),
      sched::SchedulerSpec::drr(2.0, 0.5), sched::SchedulerSpec::sced()});
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid.scenario_at(0).scheduler, sched::SchedulerSpec::gps(3.0, 1.0));
  EXPECT_EQ(grid.scenario_at(1).scheduler,
            sched::SchedulerSpec::drr(2.0, 0.5));
  EXPECT_EQ(grid.scenario_at(2).scheduler, sched::SchedulerSpec::sced());

  // And the runner solves them like any other point: finite bound, NaN
  // Delta (curve-backed specs have no Delta coordinate).
  SweepOptions options;
  options.threads = 2;
  const SweepReport report = SweepRunner(options).run(grid);
  ASSERT_EQ(report.points.size(), 3u);
  for (const SweepPoint& p : report.points) {
    EXPECT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(std::isfinite(p.bound.delay_ms));
    EXPECT_TRUE(std::isnan(p.bound.delta));
  }
}

TEST(SweepGridTest, KindAxisKeepsBaseEdfFactorsAndSpecAxisReplacesThem) {
  // The two scheduler-axis flavors differ exactly in the EDF factors: a
  // kind axis re-assigns the kind over the base's factors (composing
  // with --edf-own/--edf-cross), a spec axis replaces the identity.
  const double inf = std::numeric_limits<double>::infinity();
  e2e::Scenario base;
  base.scheduler.set_edf_factors(sched::EdfFactors{3.0, 7.0});

  SweepGrid kinds(base);
  kinds.scheduler_axis({sched::SchedulerKind::kEdf, sched::SchedulerKind::kBmux});
  EXPECT_FALSE(kinds.axis_numeric(0));
  EXPECT_EQ(kinds.scenario_at(0).scheduler, sched::SchedulerSpec::edf(3.0, 7.0));
  EXPECT_EQ(kinds.scenario_at(1).scheduler.kind(), sched::SchedulerKind::kBmux);

  SweepGrid specs(base);
  specs.scheduler_axis(std::vector<sched::SchedulerSpec>{
      sched::SchedulerSpec::edf(1.0, 2.0),
      sched::SchedulerSpec::fixed_delta(-inf)});
  EXPECT_FALSE(specs.axis_numeric(0));
  EXPECT_EQ(specs.scenario_at(0).scheduler, sched::SchedulerSpec::edf(1.0, 2.0));
  EXPECT_EQ(specs.scenario_at(1).scheduler,
            sched::SchedulerSpec::fixed_delta(-inf));
}

TEST(SweepRunnerTest, OneThreadAndEightThreadsAreBitIdentical) {
  const SweepGrid grid = small_grid();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  const SweepReport a = SweepRunner(serial).run(grid);
  const SweepReport b = SweepRunner(parallel).run(grid);
  EXPECT_EQ(a.threads, 1);
  // Warm chaining (the default) decomposes the 12-point grid into 6
  // chains along the innermost numeric axis (uc, 2 values); the worker
  // count is capped by the chain count, not the point count.
  EXPECT_EQ(b.threads, 6);
  ASSERT_EQ(a.points.size(), grid.size());
  ASSERT_EQ(b.points.size(), grid.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE(i);
    // Bit-identical: the chain decomposition is a function of the grid
    // alone, so thread count never changes which state seeds which point.
    EXPECT_EQ(a.points[i].bound.delay_ms, b.points[i].bound.delay_ms);
    EXPECT_EQ(a.points[i].bound.gamma, b.points[i].bound.gamma);
    EXPECT_EQ(a.points[i].bound.s, b.points[i].bound.s);
    EXPECT_EQ(a.points[i].bound.sigma, b.points[i].bound.sigma);
    EXPECT_EQ(a.points[i].bound.delta, b.points[i].bound.delta);
    EXPECT_TRUE(a.points[i].ok);
  }
}

TEST(SweepRunnerTest, Fig2GridIsBitIdenticalAcrossThreadCounts) {
  // The actual Fig. 2 grid at H = 2 (16 total-utilization points x
  // {EDF, FIFO, BMUX} at eps = 1e-9), the acceptance workload for the
  // sweep engine's determinism guarantee.
  std::vector<double> cross_utils;
  for (int u_pct = 20; u_pct <= 95; u_pct += 5) {
    cross_utils.push_back(u_pct / 100.0 - 0.15);
  }
  e2e::Scenario base;
  base.hops = 2;
  base.n_through = 100;
  base.epsilon = 1e-9;
  SweepGrid grid(base);
  grid.cross_utilization_axis(cross_utils)
      .scheduler_axis({sched::SchedulerKind::kEdf, sched::SchedulerKind::kFifo,
                       sched::SchedulerKind::kBmux});
  ASSERT_EQ(grid.size(), 48u);

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;  // whatever this machine offers
  parallel.threads = static_cast<int>(default_thread_count());
  const SweepReport a = SweepRunner(serial).run(grid);
  const SweepReport b = SweepRunner(parallel).run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.points[i].bound.delay_ms, b.points[i].bound.delay_ms);
    EXPECT_EQ(a.points[i].bound.gamma, b.points[i].bound.gamma);
    EXPECT_EQ(a.points[i].bound.s, b.points[i].bound.s);
    EXPECT_EQ(a.points[i].bound.sigma, b.points[i].bound.sigma);
    EXPECT_EQ(a.points[i].bound.delta, b.points[i].bound.delta);
  }
}

TEST(SweepRunnerTest, ColdResultsMatchDirectSolvesInInputOrder) {
  // kCold reproduces the historical semantics: every point is a pure
  // function of its scenario, bit-identical to a stateless solve.
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.threads = 4;
  opts.warm_start = e2e::WarmStart::kCold;
  const SweepReport report = SweepRunner(opts).run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    const e2e::BoundResult direct = deltanc::Solver().solve(grid.scenario_at(i));
    EXPECT_EQ(report.points[i].bound.delay_ms, direct.delay_ms);
    EXPECT_EQ(report.points[i].scenario.hops, grid.scenario_at(i).hops);
  }
}

TEST(SweepRunnerTest, WarmResultsStayWithinToleranceOfDirectSolves) {
  // The warm default may stop at a slightly different optimum; the
  // deviation from the cold solve is bounded by the selfcheck-enforced
  // warm-start tolerance contract (core/selfcheck.h).
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.threads = 4;
  const SweepReport report = SweepRunner(opts).run(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    const e2e::BoundResult direct = deltanc::Solver().solve(grid.scenario_at(i));
    ASSERT_TRUE(std::isfinite(direct.delay_ms) ==
                std::isfinite(report.points[i].bound.delay_ms));
    if (!std::isfinite(direct.delay_ms)) continue;
    EXPECT_NEAR(report.points[i].bound.delay_ms, direct.delay_ms,
                kWarmStartRelTol * std::max(direct.delay_ms, 1.0));
  }
}

TEST(SweepRunnerTest, UnstablePointsReportInfWithoutPoisoningNeighbors) {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  // 1.2 total utilization is unstable; its neighbors are fine.
  grid.cross_utilization_axis({0.30, 1.20, 0.40});
  const SweepReport report = SweepRunner().run(grid);
  ASSERT_EQ(report.points.size(), 3u);
  EXPECT_TRUE(std::isfinite(report.points[0].bound.delay_ms));
  EXPECT_TRUE(std::isinf(report.points[1].bound.delay_ms));
  EXPECT_TRUE(report.points[1].ok);  // unstable is a result, not an error
  EXPECT_TRUE(std::isfinite(report.points[2].bound.delay_ms));
  EXPECT_EQ(report.unstable(), 1u);
  EXPECT_EQ(report.failures(), 0u);
}

TEST(SweepRunnerTest, ThrowingSolverIsCapturedPerPoint) {
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.threads = 4;
  opts.solver = [](const e2e::Scenario& sc, e2e::Method m) {
    if (sc.scheduler == sched::SchedulerKind::kFifo) {
      throw std::runtime_error("synthetic failure");
    }
    return deltanc::Solver(m).solve(sc);
  };
  const SweepReport report = SweepRunner(opts).run(grid);
  ASSERT_EQ(report.points.size(), 12u);
  EXPECT_EQ(report.failures(), 4u);  // 2 hops x 2 loads with FIFO
  for (const SweepPoint& p : report.points) {
    if (p.scenario.scheduler == sched::SchedulerKind::kFifo) {
      EXPECT_FALSE(p.ok);
      EXPECT_EQ(p.error, "synthetic failure");
      EXPECT_TRUE(std::isinf(p.bound.delay_ms));
    } else {
      EXPECT_TRUE(p.ok);
      EXPECT_TRUE(std::isfinite(p.bound.delay_ms));
    }
  }
}

TEST(SweepRunnerTest, PerKindCountsSurviveParallelWorkers) {
  // A list mixing healthy, unstable, invalid, and throwing-solver points,
  // solved on several threads: counts_by_kind() must classify each point
  // independently of which worker handled it.
  e2e::Scenario healthy;      // ~30% load, solves fine
  healthy.epsilon = 1e-6;
  e2e::Scenario unstable = healthy;
  unstable.n_cross = 800;     // ~134% load
  e2e::Scenario invalid = healthy;
  invalid.capacity = -1.0;    // malformed: skipped before the solver runs
  invalid.hops = 0;
  std::vector<e2e::Scenario> scenarios;
  for (int i = 0; i < 4; ++i) {
    scenarios.push_back(healthy);
    scenarios.push_back(unstable);
    scenarios.push_back(invalid);
  }
  SweepOptions opts;
  opts.threads = 6;
  const SweepReport report =
      SweepRunner(opts).run(std::span<const e2e::Scenario>(scenarios));
  ASSERT_EQ(report.points.size(), 12u);
  const diag::ErrorCounts counts = report.counts_by_kind();
  using K = diag::SolveErrorKind;
  EXPECT_EQ(counts.errors[static_cast<std::size_t>(K::kInvalidScenario)], 4u);
  EXPECT_EQ(counts.errors[static_cast<std::size_t>(K::kUnstable)], 4u);
  EXPECT_EQ(counts.total_errors(), 8u);
  EXPECT_EQ(report.failures(), 4u);  // only the invalid points fail
  EXPECT_EQ(report.unstable(), 4u);
  // Invalid points carry the full multi-violation message.
  for (const SweepPoint& p : report.points) {
    if (p.scenario.hops == 0) {
      EXPECT_FALSE(p.ok);
      EXPECT_NE(p.error.find("capacity"), std::string::npos) << p.error;
      EXPECT_NE(p.error.find("hops"), std::string::npos) << p.error;
    }
  }
  // A solver that throws is classified kNumericalDomain.
  SweepOptions throwing;
  throwing.threads = 4;
  throwing.solver = [](const e2e::Scenario&,
                       e2e::Method) -> e2e::BoundResult {
    throw std::runtime_error("synthetic failure");
  };
  const std::vector<e2e::Scenario> two = {healthy, healthy};
  const SweepReport broken =
      SweepRunner(throwing).run(std::span<const e2e::Scenario>(two));
  const diag::ErrorCounts broken_counts = broken.counts_by_kind();
  EXPECT_EQ(
      broken_counts.errors[static_cast<std::size_t>(K::kNumericalDomain)],
      2u);
}

TEST(SweepReportTest, StatusColumnMarksWarnedPoints) {
  // An ok point with a diagnostics warning gets a "warn: <kind>" status
  // in the table, and warned()/recovered() expose the tallies.
  SweepOptions opts;
  opts.solver = [](const e2e::Scenario& sc, e2e::Method m) {
    e2e::BoundResult r = deltanc::Solver(m).solve(sc);
    r.diagnostics.warn(diag::SolveErrorKind::kNoConvergence, "synthetic");
    r.stats.retries = 1;
    return r;
  };
  e2e::Scenario base;
  base.epsilon = 1e-6;
  const std::vector<e2e::Scenario> one = {base};
  const SweepReport report =
      SweepRunner(opts).run(std::span<const e2e::Scenario>(one));
  EXPECT_EQ(report.warned(), 1u);
  EXPECT_EQ(report.recovered(), 1u);
  std::ostringstream csv;
  report.write_csv(csv);
  EXPECT_NE(csv.str().find("warn: no-convergence"), std::string::npos)
      << csv.str();
  const diag::ErrorCounts counts = report.counts_by_kind();
  EXPECT_EQ(counts.warnings[static_cast<std::size_t>(
                diag::SolveErrorKind::kNoConvergence)],
            1u);
}

TEST(SweepRunnerTest, ProgressIsStrictlyIncreasingAndCompleteUnderThreads) {
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.threads = 8;
  std::vector<std::size_t> seen;
  opts.progress = [&](std::size_t got_done, std::size_t total) {
    EXPECT_EQ(total, 12u);
    seen.push_back(got_done);
  };
  const SweepReport report = SweepRunner(opts).run(grid);
  (void)report;
  ASSERT_EQ(seen.size(), 12u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(SweepRunnerTest, EmptyAndSinglePointSweeps) {
  SweepOptions opts;
  std::size_t calls = 0;
  opts.progress = [&](std::size_t, std::size_t) { ++calls; };
  const SweepRunner runner(opts);

  const SweepReport empty = runner.run(std::span<const e2e::Scenario>{});
  EXPECT_TRUE(empty.points.empty());
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(empty.failures(), 0u);

  SweepGrid empty_grid;
  empty_grid.hops_axis({});
  EXPECT_TRUE(runner.run(empty_grid).points.empty());

  e2e::Scenario base;
  base.epsilon = 1e-6;
  const SweepReport single = runner.run(SweepGrid(base));
  ASSERT_EQ(single.points.size(), 1u);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(single.points[0].bound.delay_ms,
            deltanc::Solver().solve(base).delay_ms);
}

TEST(SweepRunnerTest, ExplicitScenarioListKeepsListOrder) {
  std::vector<e2e::Scenario> list(3);
  list[0].hops = 1;
  list[1].hops = 4;
  list[2].hops = 2;
  for (e2e::Scenario& sc : list) sc.epsilon = 1e-6;
  SweepOptions opts;
  opts.threads = 3;
  const SweepReport report =
      SweepRunner(opts).run(std::span<const e2e::Scenario>(list));
  ASSERT_EQ(report.points.size(), 3u);
  EXPECT_EQ(report.points[0].scenario.hops, 1);
  EXPECT_EQ(report.points[1].scenario.hops, 4);
  EXPECT_EQ(report.points[2].scenario.hops, 2);
}

/// Bitwise equality of two solved points, profiles included.
void expect_same_bits(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  const auto same = [](const e2e::BoundResult& x, const e2e::BoundResult& y) {
    EXPECT_EQ(std::memcmp(&x.delay_ms, &y.delay_ms, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&x.gamma, &y.gamma, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&x.s, &y.s, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&x.sigma, &y.sigma, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&x.delta, &y.delta, sizeof(double)), 0);
    EXPECT_EQ(x.stats.optimize_evals, y.stats.optimize_evals);
    EXPECT_EQ(x.stats.warm_start_hits, y.stats.warm_start_hits);
  };
  same(a.bound, b.bound);
  ASSERT_EQ(a.profile == nullptr, b.profile == nullptr);
  if (a.profile == nullptr) return;
  ASSERT_EQ(a.profile->levels.size(), b.profile->levels.size());
  for (std::size_t k = 0; k < a.profile->levels.size(); ++k) {
    same(a.profile->levels[k], b.profile->levels[k]);
  }
  EXPECT_EQ(a.profile->stats.profile_chain_hits,
            b.profile->stats.profile_chain_hits);
}

TEST(SweepRunnerTest, WarmGridWithoutNumericAxisIsBitIdenticalToCold) {
  // Scheduler and EDF axes never chain (an EDF fixed point must not be
  // seeded from a FIFO optimum), so a kWarm grid made of them alone runs
  // chains of one under a kCold solver: the same bits as kCold,
  // profiles included.
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.scheduler_axis({sched::SchedulerKind::kEdf, sched::SchedulerKind::kFifo,
                       sched::SchedulerKind::kBmux})
      .edf_axis({sched::EdfFactors{1.0, 10.0}, sched::EdfFactors{2.0, 4.0}});
  SweepOptions warm;
  warm.threads = 3;
  warm.profile_epsilons = {1e-3, 1e-8};
  SweepOptions cold = warm;
  cold.warm_start = e2e::WarmStart::kCold;
  const SweepReport a = SweepRunner(warm).run(grid);
  const SweepReport b = SweepRunner(cold).run(grid);
  ASSERT_EQ(a.points.size(), 6u);
  ASSERT_EQ(b.points.size(), 6u);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.stats.warm_start_hits, 0);
  EXPECT_EQ(a.stats.profile_chain_hits, 0);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_NE(a.points[i].profile, nullptr);
    expect_same_bits(a.points[i], b.points[i]);
  }
}

// fifo, edf and gps:1,1 over an n-point cross-utilization axis, the
// innermost numeric axis, so each scheduler is one warm chain of n points.
SweepGrid uc_chain_grid(int uc_points) {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.scheduler_axis(std::vector<sched::SchedulerSpec>{
          sched::SchedulerSpec::fifo(), sched::SchedulerSpec::edf(),
          sched::SchedulerSpec::gps(1.0, 1.0)})
      .cross_utilization_axis(SweepGrid::linspace(0.05, 0.60, uc_points));
  return grid;
}

TEST(SweepRunnerTest, SixPointWarmChainBitsArePinned) {
  // A chain of 6 points runs whole, one Solver::State from end to end:
  // these warm delays are the bits of the unsplit chain, as hexfloats.
  const double kPinned[3][6] = {
      {0x1.80b14da168f07p+2, 0x1.c3b873f70783ap+3, 0x1.36ac9492d6d98p+4,
       0x1.a6f0c5b3de4acp+4, 0x1.2ba0d6e61a2cp+5, 0x1.d3637ae67d8cap+5},
      {0x1.1dd1705cccaffp+2, 0x1.c7d99da6e9dep+2, 0x1.392c06360c59cp+3,
       0x1.a99399300ebdbp+3, 0x1.2cf1fe3a715bcp+4, 0x1.d4abfbfb6e57p+4},
      {0x1.f85939478d09bp+1, 0x1.f85939478d09bp+1, 0x1.f85939478d09bp+1,
       0x1.f85939478d09bp+1, 0x1.f85939478d09bp+1, 0x1.f85939478d09bp+1}};
  SweepOptions opts;
  opts.threads = 3;
  const SweepReport report = SweepRunner(opts).run(uc_chain_grid(6));
  ASSERT_EQ(report.points.size(), 18u);
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const double got = report.points[i].bound.delay_ms;
    EXPECT_EQ(got, kPinned[i / 6][i % 6]) << std::hexfloat << got << " @" << i;
  }
}

TEST(SweepRunnerTest, ReducedFig4GridWorkCountersArePinned) {
  // Fig. 4's long paths, reduced: H in {5, 15, 25} x {fifo, edf} x 8
  // cross loads at eps = 1e-9.  Literal work totals of the grid solved
  // cold (every point from scratch) and warm (chains along uc), so a
  // change in the solver or in the chain decomposition shows up here.
  const e2e::Scenario base = ScenarioBuilder()
                                 .through_utilization(0.15)
                                 .violation_probability(1e-9)
                                 .build();
  SweepGrid grid(base);
  grid.hops_axis({5, 15, 25})
      .scheduler_axis({sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf})
      .cross_utilization_axis(SweepGrid::linspace(0.05, 0.65, 8));
  ASSERT_EQ(grid.size(), 48u);
  SweepOptions cold;
  cold.threads = 4;
  cold.warm_start = e2e::WarmStart::kCold;
  const e2e::SolveStats c = SweepRunner(cold).run(grid).stats;
  EXPECT_EQ(c.optimize_evals, 731424);
  EXPECT_EQ(c.eb_evals, 12582);
  EXPECT_EQ(c.edf_iterations, 108);
  // Warm: each 8-point chain runs as two segments of 4, so 12 of the 48
  // points are cold segment heads; a converged warm EDF point skips the
  // final re-solve.
  SweepOptions warm;
  warm.threads = 4;
  const SweepReport w = SweepRunner(warm).run(grid);
  EXPECT_EQ(w.chains, 12u);
  EXPECT_EQ(w.stats.optimize_evals, 469528);
  EXPECT_EQ(w.stats.eb_evals, 9083);
  EXPECT_EQ(w.stats.edf_iterations, 91);
}

// Every finite point of a warm sweep lies within kWarmStartRelTol of the
// same grid solved cold; both agree on finiteness.
void expect_warm_grid_within_tolerance_of_cold(const SweepGrid& grid) {
  SweepOptions warm;
  warm.threads = 4;
  SweepOptions cold = warm;
  cold.warm_start = e2e::WarmStart::kCold;
  const SweepReport w = SweepRunner(warm).run(grid);
  const SweepReport c = SweepRunner(cold).run(grid);
  ASSERT_EQ(w.points.size(), c.points.size());
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const e2e::Scenario& sc = w.points[i].scenario;
    const double got = w.points[i].bound.delay_ms;
    const double want = c.points[i].bound.delay_ms;
    SCOPED_TRACE(testing::Message()
                 << sched::to_string(sc.scheduler) << " H=" << sc.hops
                 << " n0=" << sc.n_through << " nc=" << sc.n_cross
                 << " eps=" << sc.epsilon);
    ASSERT_EQ(std::isfinite(got), std::isfinite(want));
    if (!std::isfinite(want)) continue;
    EXPECT_LE(std::abs(got - want), kWarmStartRelTol * want);
  }
}

TEST(SweepRunnerTest, WarmPointPastTheStabilityEdgeStaysWithinToleranceOfCold) {
  // The second segment of a 12-point uc axis (cross loads 6..11, n_cross
  // 272..471): at n_cross = 471 the previous optimum s lies above the
  // 0.999 edge of the new stability window, so the warm probe is clamped
  // onto that edge and its refinement bracket ends short of the cold
  // optimum.  The probe counts as missed and the point is scanned cold.
  const e2e::Scenario base = ScenarioBuilder()
                                 .hops(2)
                                 .through_utilization(0.10)
                                 .violation_probability(1e-9)
                                 .scheduler(sched::SchedulerKind::kBmux)
                                 .build();
  SweepGrid grid(base);
  grid.cross_utilization_axis(SweepGrid::linspace(0.05, 0.70, 12));
  ASSERT_EQ(grid.scenario_at(11).n_through, 67);
  ASSERT_EQ(grid.scenario_at(6).n_cross, 272);
  ASSERT_EQ(grid.scenario_at(11).n_cross, 471);
  expect_warm_grid_within_tolerance_of_cold(grid);
}

TEST(SweepRunnerTest, WarmGridsStayWithinToleranceOfCold) {
  // fifo, bmux, edf and sp-high at H in {2, 10, 30}, u0 in {0.10, 0.15,
  // 0.20} and eps in {1e-9, 1e-3}, each over 12 cross loads up to 0.70:
  // 72 warm chains of 12 points, each run as two segments of 6.
  SweepGrid grid;
  grid.scheduler_axis({sched::SchedulerKind::kFifo, sched::SchedulerKind::kBmux,
                       sched::SchedulerKind::kEdf,
                       sched::SchedulerKind::kSpHigh})
      .hops_axis({2, 10, 30})
      .through_utilization_axis({0.10, 0.15, 0.20})
      .epsilon_axis({1e-9, 1e-3})
      .cross_utilization_axis(SweepGrid::linspace(0.05, 0.70, 12));
  ASSERT_EQ(grid.size(), 864u);
  expect_warm_grid_within_tolerance_of_cold(grid);
}

TEST(SweepRunnerTest, TwelvePointChainsSplitIntoTwoColdHeadedSegments) {
  // A 12-point axis runs as two segments of 6: grid positions 0 and 6
  // of every Delta-kind chain are solved cold (no warm hint consumed),
  // every other position warms from its predecessor.
  SweepOptions opts;
  opts.threads = 4;
  const SweepReport report = SweepRunner(opts).run(uc_chain_grid(12));
  ASSERT_EQ(report.points.size(), 36u);
  EXPECT_EQ(report.chains, 6u);
  for (std::size_t i = 0; i < 24; ++i) {  // fifo, then edf
    const std::size_t k = i % 12;
    EXPECT_EQ(report.points[i].bound.stats.warm_start_hits == 0,
              k == 0 || k == 6)
        << "position " << k << " of "
        << sched::to_string(report.points[i].scenario.scheduler);
  }
}

TEST(SweepRunnerTest, SplitChainsAreBitIdenticalAcrossThreadCounts) {
  // The split and the claim order depend on the grid alone, so every
  // worker count reproduces the same bits.
  const SweepGrid grid = uc_chain_grid(12);
  SweepOptions one;
  one.threads = 1;
  const SweepReport ref = SweepRunner(one).run(grid);
  for (const int threads : {3, 4, 8}) {
    SweepOptions opts;
    opts.threads = threads;
    const SweepReport report = SweepRunner(opts).run(grid);
    EXPECT_EQ(report.threads, std::min(threads, 6));
    EXPECT_EQ(report.chains, ref.chains);
    ASSERT_EQ(report.points.size(), ref.points.size());
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
      SCOPED_TRACE(testing::Message() << threads << " threads, point " << i);
      expect_same_bits(report.points[i], ref.points[i]);
    }
  }
}

TEST(SweepRunnerTest, ScenarioListEqualsColdGrid) {
  // run(span) is the cold executor over the list: bit-identical to
  // run(grid) under kCold on the same scenarios, in the same order.
  const SweepGrid grid = small_grid();
  SweepOptions opts;
  opts.threads = 4;
  opts.warm_start = e2e::WarmStart::kCold;
  const SweepReport from_grid = SweepRunner(opts).run(grid);
  const std::vector<e2e::Scenario> list = grid.scenarios();
  opts.warm_start = e2e::WarmStart::kWarm;  // ignored for a list
  const SweepReport from_list =
      SweepRunner(opts).run(std::span<const e2e::Scenario>(list));
  ASSERT_EQ(from_list.points.size(), from_grid.points.size());
  EXPECT_EQ(from_list.threads, from_grid.threads);
  EXPECT_EQ(from_list.stats.optimize_evals, from_grid.stats.optimize_evals);
  for (std::size_t i = 0; i < list.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_bits(from_list.points[i], from_grid.points[i]);
  }
}

TEST(SweepRunnerTest, ThreadResolutionClampsToTaskCount) {
  SweepOptions opts;
  opts.threads = 16;
  const SweepRunner runner(opts);
  EXPECT_EQ(runner.resolved_threads(4), 4);
  EXPECT_EQ(runner.resolved_threads(100), 16);
  EXPECT_EQ(runner.resolved_threads(0), 1);
}

TEST(SweepReportTest, TableAndCsvCarryOneRowPerPoint) {
  const SweepGrid grid = small_grid();
  const SweepReport report = SweepRunner().run(grid);
  const Table table = report.to_table();
  EXPECT_EQ(table.rows(), grid.size());
  std::ostringstream csv;
  report.write_csv(csv);
  // Header + one line per point.
  std::size_t lines = 0;
  for (char c : csv.str()) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, grid.size() + 1);
  EXPECT_NE(csv.str().find("delay [ms]"), std::string::npos);
}

TEST(SweepReportTest, CsvQuotesErrorMessagesRfc4180) {
  // A solver whose exception message contains the CSV separator, quotes
  // and a newline: the emitted CSV must still parse into exactly one
  // record of 13 fields per point.
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.cross_utilization_axis({0.30, 0.40});
  SweepOptions opts;
  opts.solver = [](const e2e::Scenario& sc, e2e::Method) -> e2e::BoundResult {
    (void)sc;
    throw std::runtime_error("bad, \"worse\",\nworst");
  };
  const SweepReport report = SweepRunner(opts).run(grid);
  ASSERT_EQ(report.failures(), 2u);
  std::ostringstream csv;
  report.write_csv(csv);
  const std::string text = csv.str();

  // Minimal RFC-4180 reader: split into records honoring quoted fields.
  std::vector<std::vector<std::string>> records(1);
  records.back().emplace_back();
  bool in_quotes = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        records.back().back().push_back('"');
        ++i;
      } else if (c == '"') {
        in_quotes = false;
      } else {
        records.back().back().push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      records.back().emplace_back();
    } else if (c == '\n') {
      if (i + 1 < text.size()) records.emplace_back(1);
    } else {
      records.back().back().push_back(c);
    }
  }
  EXPECT_FALSE(in_quotes);  // every quote closed
  ASSERT_EQ(records.size(), 3u);  // header + 2 points
  for (const auto& record : records) {
    EXPECT_EQ(record.size(), 13u);
  }
  // The status field round-trips the exception text verbatim.
  EXPECT_EQ(records[1].back(), "error: bad, \"worse\",\nworst");
  EXPECT_EQ(records[2].back(), "error: bad, \"worse\",\nworst");
}

TEST(SweepReportTest, StatsAggregateAcrossPoints) {
  const SweepGrid grid = small_grid();
  const SweepReport report = SweepRunner().run(grid);
  e2e::SolveStats expected;
  for (const SweepPoint& p : report.points) expected += p.bound.stats;
  EXPECT_EQ(report.stats.optimize_evals, expected.optimize_evals);
  EXPECT_EQ(report.stats.eb_evals, expected.eb_evals);
  EXPECT_EQ(report.stats.sigma_evals, expected.sigma_evals);
  EXPECT_EQ(report.stats.edf_iterations, expected.edf_iterations);
  EXPECT_GT(report.stats.optimize_evals, 0);
  // The grid includes EDF points, so fixed-point iterations accumulate.
  EXPECT_GT(report.stats.edf_iterations, 0);
  EXPECT_TRUE(report.stats.edf_converged);
}

TEST(SweepProfileTest, ProfilesAttachToEveryPointAndAggregate) {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.cross_utilization_axis({0.30, 0.60});
  SweepOptions opts;
  opts.profile_epsilons = {1e-3, 1e-6, 1e-9};
  const SweepReport report = SweepRunner(opts).run(grid);

  e2e::SolveStats expected;
  for (const SweepPoint& p : report.points) {
    ASSERT_TRUE(p.ok);
    ASSERT_NE(p.profile, nullptr);
    ASSERT_EQ(p.profile->levels.size(), 3u);
    expected += p.bound.stats;
    expected += p.profile->stats;
    // The scalar bound stays the solve at the scenario's own epsilon,
    // untouched by the profile ride-along.
    EXPECT_TRUE(std::isfinite(p.bound.delay_ms));
  }
  EXPECT_EQ(report.stats.optimize_evals, expected.optimize_evals);
  EXPECT_EQ(report.stats.profile_levels,
            static_cast<std::int64_t>(3 * report.points.size()));
  // The default warm sweep chains profile levels off the scalar solve.
  EXPECT_GT(report.stats.profile_chain_hits, 0);
}

TEST(SweepProfileTest, ColdSweepProfilesArePinnedToScalarSolves) {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.cross_utilization_axis({0.30, 0.60});
  SweepOptions opts;
  opts.warm_start = e2e::WarmStart::kCold;
  opts.profile_epsilons = {1e-3, 1e-8};
  const SweepReport report = SweepRunner(opts).run(grid);
  EXPECT_EQ(report.stats.profile_chain_hits, 0);
  for (const SweepPoint& p : report.points) {
    ASSERT_NE(p.profile, nullptr);
    for (std::size_t i = 0; i < opts.profile_epsilons.size(); ++i) {
      e2e::Scenario level = p.scenario;
      level.epsilon = opts.profile_epsilons[i];
      const e2e::BoundResult scalar = deltanc::Solver().solve(level);
      EXPECT_EQ(p.profile->levels[i].delay_ms, scalar.delay_ms);
      EXPECT_EQ(p.profile->levels[i].gamma, scalar.gamma);
      EXPECT_EQ(p.profile->levels[i].s, scalar.s);
      EXPECT_EQ(p.profile->levels[i].sigma, scalar.sigma);
    }
  }
}

TEST(SweepProfileTest, CustomSolverDisablesProfiles) {
  // A caller-supplied solver produces BoundResults only -- there is no
  // profile entry point to call, so the ride-along is skipped.
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.cross_utilization_axis({0.30, 0.40});
  SweepOptions opts;
  opts.profile_epsilons = {1e-3, 1e-9};
  opts.solver = [](const e2e::Scenario& sc, e2e::Method method) {
    return deltanc::Solver(method).solve(sc);
  };
  const SweepReport report = SweepRunner(opts).run(grid);
  for (const SweepPoint& p : report.points) {
    EXPECT_TRUE(p.ok);
    EXPECT_EQ(p.profile, nullptr);
  }
  EXPECT_EQ(report.stats.profile_levels, 0);
}

TEST(SweepProfileTest, ProfileCsvIsDeterministicShapedAndQuoted) {
  e2e::Scenario base;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  // A curve-backed scheduler whose name contains the CSV separator
  // ("gps:1,2"): the cell must be RFC-4180 quoted.
  grid.scheduler_axis(std::vector<sched::SchedulerSpec>{
      sched::SchedulerSpec(sched::SchedulerKind::kFifo),
      sched::SchedulerSpec::gps(1.0, 2.0)});
  SweepOptions opts;
  opts.warm_start = e2e::WarmStart::kCold;
  opts.profile_epsilons = {1e-3, 1e-9};

  std::ostringstream first, second;
  SweepRunner(opts).run(grid).write_profile_csv(first);
  SweepRunner(opts).run(grid).write_profile_csv(second);
  EXPECT_EQ(first.str(), second.str());

  const std::string text = first.str();
  EXPECT_EQ(text.rfind("point,hops,scheduler,n0,nc,u_pct,epsilon,delay_ms,"
                       "gamma,s,sigma,delta\n",
                       0),
            0u);
  EXPECT_NE(text.find("\"gps:1,2\""), std::string::npos);
  std::size_t lines = 0;
  for (char c : text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, grid.size() * opts.profile_epsilons.size() + 1);
}

TEST(SweepReportTest, TimingFieldsArePopulated) {
  const SweepReport report = SweepRunner().run(small_grid());
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.solve_ms, 0.0);
  for (const SweepPoint& p : report.points) EXPECT_GE(p.solve_ms, 0.0);
}

TEST(ThreadCountTest, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("DELTANC_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ::setenv("DELTANC_THREADS", "not-a-number", 1);
  EXPECT_GE(default_thread_count(), 1u);
  ::unsetenv("DELTANC_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadCountTest, DefaultThreadCountRejectsTrailingGarbage) {
  // strtol would happily parse "5x" as 5; the override must instead be
  // ignored unless the whole value is a positive integer.
  const unsigned hw_fallback = [] {
    ::unsetenv("DELTANC_THREADS");
    return default_thread_count();
  }();
  for (const char* bad : {"5x", "2 threads", "1.5", "+", "-3", "0", ""}) {
    SCOPED_TRACE(bad);
    ::setenv("DELTANC_THREADS", bad, 1);
    EXPECT_EQ(default_thread_count(), hw_fallback);
  }
  ::setenv("DELTANC_THREADS", "7", 1);
  EXPECT_EQ(default_thread_count(), 7u);
  ::unsetenv("DELTANC_THREADS");
}

TEST(ThreadCountTest, ResolveThreadsClampsToTaskCountAndNeverBelowOne) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(2, 100), 2u);
  EXPECT_EQ(resolve_threads(5, 0), 1u);
  ::setenv("DELTANC_THREADS", "6", 1);
  EXPECT_EQ(resolve_threads(0, 100), 6u);  // 0 = default_thread_count()
  EXPECT_EQ(resolve_threads(0, 4), 4u);
  ::unsetenv("DELTANC_THREADS");
}

TEST(ParallelForTest, RunsEachIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 100u}) {
    for (const unsigned threads : {1u, 3u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      std::vector<std::atomic<int>> calls(n);
      parallel_for(n, threads, [&](std::size_t i) {
        calls[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
    }
  }
}

TEST(ParallelForTest, NeverUsesMoreThreadsThanTasks) {
  for (const std::size_t n : {1u, 2u, 5u}) {
    SCOPED_TRACE(n);
    std::mutex mu;
    std::set<std::thread::id> seen;
    parallel_for(n, 8, [&](std::size_t) {
      // Long enough that idle workers would get to claim something.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      const std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    });
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), n);
  }
  // One worker is the calling thread itself.
  std::set<std::thread::id> serial;
  parallel_for(50, 1, [&](std::size_t) {
    serial.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(*serial.begin(), std::this_thread::get_id());
}

TEST(ParallelForTest, ProgressArrivesInOrderUnderEightThreads) {
  constexpr std::size_t kTasks = 100;
  std::vector<std::size_t> seen;
  ProgressCounter progress(
      [&](std::size_t done, std::size_t total) {
        EXPECT_EQ(total, kTasks);
        seen.push_back(done);  // serialized by the counter
      },
      kTasks);
  parallel_for(kTasks, 8, [&](std::size_t) { progress.tick(); });
  ASSERT_EQ(seen.size(), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(seen[i], i + 1);

  // No callback: tick() is a no-op.
  ProgressCounter silent({}, kTasks);
  parallel_for(kTasks, 8, [&](std::size_t) { silent.tick(); });
}

}  // namespace
}  // namespace deltanc
