// The parallel sweep engine (core/sweep.h) and its thread pool
// (core/thread_pool.h): grid enumeration order, 1-thread vs N-thread
// determinism, unstable/failing-point isolation, progress-callback
// contract, and degenerate (empty / single-point) grids.
#include "core/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
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
  // The raw values are recorded for the codec under the "delta" name.
  ASSERT_EQ(grid.axes(), 1u);
  EXPECT_EQ(grid.axis_name(0), "delta");
  EXPECT_EQ(grid.axis_spec(0).numeric.size(), 4u);
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
  parallel.threads = static_cast<int>(ThreadPool::default_thread_count());
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

TEST(SweepRunnerTest, PerKindCountsSurviveTheThreadPool) {
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

TEST(SchedulerNameTest, RoundTripsAllSchedulers) {
  for (sched::SchedulerKind s :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kBmux, sched::SchedulerKind::kSpHigh,
        sched::SchedulerKind::kEdf}) {
    sched::SchedulerKind parsed{};
    ASSERT_TRUE(scheduler_from_name(scheduler_name(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  sched::SchedulerKind unused{};
  EXPECT_FALSE(scheduler_from_name("wfq", unused));
}

TEST(ThreadPoolTest, RunsAllSubmittedTasksAndIsReusable) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvOverride) {
  ::setenv("DELTANC_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ::setenv("DELTANC_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ::unsetenv("DELTANC_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPoolTest, DefaultThreadCountRejectsTrailingGarbage) {
  // strtol would happily parse "5x" as 5; the override must instead be
  // ignored unless the whole value is a positive integer.
  const unsigned hw_fallback = [] {
    ::unsetenv("DELTANC_THREADS");
    return ThreadPool::default_thread_count();
  }();
  for (const char* bad : {"5x", "2 threads", "1.5", "+", "-3", "0", ""}) {
    SCOPED_TRACE(bad);
    ::setenv("DELTANC_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::default_thread_count(), hw_fallback);
  }
  ::setenv("DELTANC_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 7u);
  ::unsetenv("DELTANC_THREADS");
}

}  // namespace
}  // namespace deltanc
