// The deltanc::Solver facade must be a pure repackaging of the free
// functions it consolidates: bit-identical results against the PR 2
// hexfloat goldens and against the (deprecated) free entry points, with
// the SolveOptions knobs (scheduler override, fixed delta, retry
// policy) behaving as documented.
#include "e2e/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/selfcheck.h"

namespace deltanc {
namespace {

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

e2e::PathParams path_params(double delta) {
  return e2e::PathParams{100.0, 4, 20.0, 30.0, 0.5, 1.0, delta};
}

TEST(SolverFacade, MatchesPinnedHexfloatGoldens) {
  // Two operating points of the PR 2 golden table
  // (tests/param_search_test.cpp): the facade must reproduce the exact
  // bits, not just close values.
  const e2e::BoundResult fifo =
      Solver().solve(fig2_scenario(67, sched::SchedulerKind::kFifo));
  EXPECT_EQ(fifo.delay_ms, 0x1.6126458d64984p+4);
  EXPECT_EQ(fifo.gamma, 0x1.8ceaed36017b9p-1);
  EXPECT_EQ(fifo.s, 0x1.7f822a740c65ap-4);
}

TEST(SolverFacade, SolveIsBitIdenticalToFreeFunction) {
  const struct {
    int n_cross;
    sched::SchedulerKind sched;
    e2e::Method method;
  } cases[] = {{67, sched::SchedulerKind::kFifo, e2e::Method::kExactOpt},
               {268, sched::SchedulerKind::kBmux, e2e::Method::kExactOpt},
               {538, sched::SchedulerKind::kSpHigh, e2e::Method::kPaperK},
               {168, sched::SchedulerKind::kEdf, e2e::Method::kExactOpt}};
  for (const auto& c : cases) {
    const e2e::Scenario sc = fig2_scenario(c.n_cross, c.sched);
    SolveOptions options;
    options.method = c.method;
    const e2e::BoundResult facade = Solver(options).solve(sc);
    const e2e::BoundResult direct = deltanc::Solver(c.method).solve(sc);
    EXPECT_EQ(facade.delay_ms, direct.delay_ms);
    EXPECT_EQ(facade.gamma, direct.gamma);
    EXPECT_EQ(facade.s, direct.s);
    EXPECT_EQ(facade.sigma, direct.sigma);
    EXPECT_EQ(facade.delta, direct.delta);
    EXPECT_EQ(facade.stats.optimize_evals, direct.stats.optimize_evals);
  }
}

TEST(SolverFacade, SchedulerOverrideEqualsEditedScenario) {
  const e2e::Scenario fifo = fig2_scenario(168, sched::SchedulerKind::kFifo);
  SolveOptions options;
  options.scheduler = sched::SchedulerKind::kEdf;
  const Solver solver(options);
  EXPECT_EQ(solver.effective_scenario(fifo).scheduler, sched::SchedulerKind::kEdf);

  e2e::Scenario edf = fifo;
  edf.scheduler = sched::SchedulerKind::kEdf;
  const e2e::BoundResult overridden = solver.solve(fifo);
  const e2e::BoundResult direct = Solver().solve(edf);
  EXPECT_EQ(overridden.delay_ms, direct.delay_ms);
  EXPECT_EQ(overridden.delta, direct.delta);
}

TEST(SolverFacade, FixedDeltaMatchesDeprecatedEntryPoint) {
  const e2e::Scenario sc = fig2_scenario(268, sched::SchedulerKind::kFifo);
  for (const double delta : {0.0, 5.0, -kInf, kInf}) {
    const e2e::BoundResult via_at = Solver().solve_at(sc, delta);
    SolveOptions options;
    options.delta = delta;
    const e2e::BoundResult via_options = Solver(options).solve(sc);
    const e2e::BoundResult direct =
        deltanc::Solver(e2e::Method::kExactOpt).solve_at(sc, delta);
    EXPECT_EQ(via_at.delay_ms, direct.delay_ms);
    EXPECT_EQ(via_options.delay_ms, direct.delay_ms);
    EXPECT_EQ(via_at.gamma, direct.gamma);
    EXPECT_EQ(via_at.s, direct.s);
  }
}

TEST(SolverFacade, OptimizeIsBitIdenticalWithAndWithoutWorkspace) {
  // The Solver reuses one workspace across optimize() calls; a fresh
  // workspace per call must give the same bits.
  const e2e::PathParams p = path_params(2.0);
  for (const e2e::Method method :
       {e2e::Method::kExactOpt, e2e::Method::kPaperK}) {
    const Solver solver(method);
    for (const double gamma : {0.5, 1.0, 2.0, 0.5}) {
      const e2e::DelayResult reused = solver.optimize(p, gamma, 40.0);
      e2e::SolveWorkspace fresh;
      const e2e::DelayResult direct =
          method == e2e::Method::kExactOpt
              ? e2e::optimize_delay(p, gamma, 40.0, fresh)
              : e2e::k_procedure_delay(p, gamma, 40.0, fresh);
      EXPECT_EQ(reused.delay, direct.delay);
      EXPECT_EQ(reused.x, direct.x);
      EXPECT_EQ(reused.theta, direct.theta);
    }
  }
}

// The deterministic work counters of a solve (the process-local
// wall-clock timings left out): optimize, sigma and eb evals, batched
// evals, EDF iterations, warm-start hits, profile chain hits.
using Counters = std::array<std::int64_t, 7>;

Counters counters_of(const e2e::SolveStats& s) {
  return {s.optimize_evals, s.sigma_evals,     s.eb_evals,
          s.batched_evals,  s.edf_iterations,  s.warm_start_hits,
          s.profile_chain_hits};
}

TEST(SolverFacade, ColdSolveWorkCountersArePinned) {
  // Literal counts of the nested (s, gamma) search: a change in how many
  // evaluations the scans, the refinement, or the EDF fixed point do
  // shows up here even when the bound itself does not move.
  const struct {
    sched::SchedulerKind sched;
    Counters want;
  } cases[] = {
      {sched::SchedulerKind::kFifo, {5624, 5624, 132, 1850, 0, 0, 0}},
      {sched::SchedulerKind::kEdf, {19608, 19608, 320, 6450, 3, 0, 0}},
      {sched::SchedulerKind::kBmux, {5624, 5624, 132, 1850, 0, 0, 0}},
  };
  for (const auto& c : cases) {
    const e2e::BoundResult r = Solver().solve(fig2_scenario(168, c.sched));
    EXPECT_EQ(counters_of(r.stats), c.want) << sched::to_string(c.sched);
  }
}

TEST(SolverFacade, WarmChainWorkCountersArePinned) {
  // A Fig. 2-style warm chain: one State threaded through n_cross = 20,
  // 40, ..., 380.  Literal totals of the chain's work and of its delays
  // (summed in chain order, compared as hexfloats), so a change to the
  // warm hints shows up even when every bound stays within tolerance.
  // brackets_reused is retired and always 0; the optimum probe lands on
  // all 18 successors.  A converged warm EDF point returns its last
  // iterate without a final re-solve.
  const struct {
    sched::SchedulerKind sched;
    std::int64_t optimize_evals, eb_evals, brackets_reused, warm_start_hits;
    double delay_sum;
  } cases[] = {
      {sched::SchedulerKind::kFifo, 68552, 2016, 0, 18,
       0x1.b67e6caeafca7p+10},
      {sched::SchedulerKind::kEdf, 208392, 3896, 0, 18,
       0x1.05dcab5c0a314p+9},
  };
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const Solver solver(warm_options);
  for (const auto& c : cases) {
    Solver::State state;
    e2e::SolveStats total;
    double delay_sum = 0.0;
    for (int n_cross = 20; n_cross <= 380; n_cross += 20) {
      const e2e::BoundResult r =
          solver.solve(fig2_scenario(n_cross, c.sched), state);
      total += r.stats;
      delay_sum += r.delay_ms;
    }
    const std::string name = sched::to_string(c.sched);
    EXPECT_EQ(total.optimize_evals, c.optimize_evals) << name;
    EXPECT_EQ(total.eb_evals, c.eb_evals) << name;
    EXPECT_EQ(total.brackets_reused, c.brackets_reused) << name;
    EXPECT_EQ(total.warm_start_hits, c.warm_start_hits) << name;
    EXPECT_EQ(delay_sum, c.delay_sum)
        << std::hexfloat << delay_sum << " " << name;
  }
}

// Every field of a BoundResult a solve decides, wall-clock timings and
// diagnostics left out.
void expect_same_solve(const e2e::BoundResult& got,
                       const e2e::BoundResult& want, const std::string& name) {
  EXPECT_EQ(got.delay_ms, want.delay_ms) << name;
  EXPECT_EQ(got.gamma, want.gamma) << name;
  EXPECT_EQ(got.s, want.s) << name;
  EXPECT_EQ(got.sigma, want.sigma) << name;
  EXPECT_EQ(got.delta, want.delta) << name;
  EXPECT_EQ(counters_of(got.stats), counters_of(want.stats)) << name;
  EXPECT_EQ(got.stats.brackets_reused, want.stats.brackets_reused) << name;
  EXPECT_EQ(got.stats.retries, want.stats.retries) << name;
  EXPECT_EQ(got.stats.fallbacks, want.stats.fallbacks) << name;
  EXPECT_EQ(got.stats.edf_converged, want.stats.edf_converged) << name;
}

TEST(SolverFacade, WarmSolveAfterAnUnstableOrCurveBackedSolveIsCold) {
  // A State is a hint channel: an unstable solve leaves no optimum and no
  // EDF fixed point in it, and a curve-backed solve (whose 1-D search
  // shares nothing with the Delta engine) clears it.  So a warm solve
  // through a State last written by either, at another flow count, is
  // the cold solve -- same bits, same work.  The State holds a finite
  // hint before the writer runs, so the writer must really drop it.
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const Solver warm(warm_options);
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf}) {
    const e2e::Scenario target = fig2_scenario(168, kind);
    const e2e::BoundResult cold = Solver().solve(target);
    e2e::Scenario curve_backed = fig2_scenario(100, kind);
    curve_backed.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
    const struct {
      const char* label;
      e2e::Scenario writer;
    } writers[] = {{"unstable", fig2_scenario(800, kind)},
                   {"curve-backed", curve_backed}};
    for (const auto& w : writers) {
      const std::string name = sched::to_string(kind) + " after " + w.label;
      Solver::State state;
      ASSERT_TRUE(
          std::isfinite(warm.solve(fig2_scenario(67, kind), state).delay_ms))
          << name;
      (void)warm.solve(w.writer, state);
      expect_same_solve(warm.solve(target, state), cold, name);
    }
  }
}

TEST(SolverFacade, WarmSolveThroughAForeignStateStaysWithinTolerance) {
  // A State written under another source, capacity and flow count still
  // feeds its hints to the next warm solve.  Hints only seed the search,
  // so the warm result agrees with the cold one on finiteness and lies
  // within the warm-start tolerance (core/selfcheck.h).
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const Solver warm(warm_options);
  for (const sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf}) {
    e2e::Scenario foreign = fig2_scenario(67, kind);
    foreign.source = traffic::MmooSource(2.0, 0.98, 0.85);
    foreign.capacity = 150.0;
    for (const int n_cross : {168, 268, 800}) {
      const e2e::Scenario target = fig2_scenario(n_cross, kind);
      const std::string name =
          sched::to_string(kind) + " n_cross=" + std::to_string(n_cross);
      Solver::State state;
      ASSERT_TRUE(std::isfinite(warm.solve(foreign, state).delay_ms)) << name;
      const e2e::BoundResult got = warm.solve(target, state);
      const e2e::BoundResult cold = Solver().solve(target);
      ASSERT_EQ(std::isfinite(got.delay_ms), std::isfinite(cold.delay_ms))
          << name;
      if (!std::isfinite(cold.delay_ms)) continue;
      EXPECT_LE(std::abs(got.delay_ms - cold.delay_ms),
                kWarmStartRelTol * cold.delay_ms)
          << name;
    }
  }
}

// A converged EDF result solves its own fixed point: its Delta is the
// one the deadlines d*_0 - d*_c = (own - cross) d / H give for d equal
// to its delay, to the fixed point's 1e-7 tolerance.  Warm results also
// lie within the warm-start tolerance of the cold solve.
void expect_converged_edf_fixed_point(const e2e::BoundResult& warm,
                                      const e2e::Scenario& sc,
                                      const std::string& name) {
  const sched::EdfFactors& f = sc.scheduler.edf_factors();
  const double d = warm.delta * sc.hops / (f.own_factor - f.cross_factor);
  EXPECT_TRUE(warm.stats.edf_converged) << name;
  EXPECT_LE(std::abs(warm.delay_ms - d), 1e-7 * std::max(1.0, d)) << name;
  const e2e::BoundResult cold = Solver().solve(sc);
  EXPECT_LE(std::abs(warm.delay_ms - cold.delay_ms),
            kWarmStartRelTol * cold.delay_ms)
      << name;
}

TEST(SolverFacade, ConvergedWarmEdfResultIsItsOwnFixedPoint) {
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const Solver warm(warm_options);
  // The warm chain of WarmChainWorkCountersArePinned.
  Solver::State state;
  for (int n_cross = 20; n_cross <= 380; n_cross += 20) {
    const e2e::Scenario sc = fig2_scenario(n_cross, sched::SchedulerKind::kEdf);
    expect_converged_edf_fixed_point(warm.solve(sc, state), sc,
                                     "chain n_cross=" + std::to_string(n_cross));
  }
  // The warm 16-level profile of WarmProfileWorkCountersArePinned.
  std::vector<double> grid;
  for (int i = 0; i < 16; ++i) grid.push_back(std::pow(10.0, -9.0 + 0.4 * i));
  const e2e::Scenario sc = fig2_scenario(168, sched::SchedulerKind::kEdf);
  const e2e::DelayProfile p = warm.solve_profile(sc, grid);
  ASSERT_EQ(p.levels.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    e2e::Scenario level = sc;
    level.epsilon = grid[i];
    expect_converged_edf_fixed_point(p.levels[i], level,
                                     "profile eps=" + std::to_string(grid[i]));
  }
}

TEST(SolverFacade, PaperKDivergentEdfPointRunsTheFullRestartSchedule) {
  // The one place the EDF damped-restart schedule is known to fire: a
  // paper-K EDF(1,10) point at epsilon = 1e-9 (one of the selfcheck
  // points) whose accelerated attempt 0 diverges.  Both damped restarts
  // run, neither converges either, and the result is flagged -- the
  // schedule rescues nothing here, but it decides the flagged value.
  e2e::Scenario sc;
  sc.hops = 2;
  sc.n_through = 100;
  sc.n_cross = 303;
  sc.epsilon = 1e-9;
  sc.scheduler = sched::SchedulerSpec::edf(1.0, 10.0);
  const e2e::BoundResult r = Solver(e2e::Method::kPaperK).solve(sc);
  EXPECT_FALSE(r.stats.edf_converged);
  EXPECT_EQ(r.stats.retries, 2);
  EXPECT_TRUE(r.diagnostics.ok());
  ASSERT_EQ(r.diagnostics.warnings.size(), 1u);
  EXPECT_EQ(r.diagnostics.warnings[0].kind,
            diag::SolveErrorKind::kNoConvergence);
}

TEST(SolverFacade, UnstableScenarioStillClassified) {
  const e2e::BoundResult r =
      Solver().solve(fig2_scenario(800, sched::SchedulerKind::kBmux));
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_FALSE(r.diagnostics.ok());
}

TEST(SolverFacade, CurveBackedBoundsArePinned) {
  // Literal bits of the curve-backed (GPS / DRR / SCED) solves: the
  // rate-latency pair per kind, the 1-D s search and its counters.  GPS
  // and SCED have T = 0, so their bounds do not depend on H; DRR adds
  // H T.  The SCED rows run 150 cross flows so their load split (R = 40)
  // differs from every GPS share.
  const struct {
    const char* spec;
    int hops;
    int n_cross;
    double delay_ms, gamma, s, sigma;
    Counters want;
  } cases[] = {
      {"gps:1,1", 2, 100, 0x1.f85939478d09bp+1, 0x1.67bccb845ec9p+1,
       0x1.40f0ebf3a395cp-4, 0x1.8a05b4bfe62f9p+7, {116, 116, 174, 0, 0, 0, 0}},
      {"gps:3,1", 2, 100, 0x1.ac460c6d1fb34p+0, 0x1.95eef9ffc85p+1,
       0x1.e8b7131364776p-4, 0x1.f5e2168fe1261p+6, {116, 116, 173, 0, 0, 0, 0}},
      {"gps:1,2,1", 2, 100, 0x1.34646334c4de8p+4, 0x1.769e2c32f78ap-1,
       0x1.28d07e5998f36p-5, 0x1.e1dcdb02739bbp+8, {116, 116, 175, 0, 0, 0, 0}},
      {"drr:2,1", 2, 100, 0x1.18b0fb80b9844p+1, 0x1.9d4bb0bebcebp+1,
       0x1.aa1ac4579d9e4p-4, 0x1.21b85b50c13f1p+7, {116, 116, 174, 0, 0, 0, 0}},
      {"drr:1,1,1", 2, 100, 0x1.29d8e76936dc2p+3, 0x1.89181f090363p+0,
       0x1.b1f6c176b0b7cp-5, 0x1.34ec9bb843cffp+8, {116, 116, 175, 0, 0, 0, 0}},
      {"sced", 2, 150, 0x1.8ed1abaaa204ap+2, 0x1.1169402aa1bep+1,
       0x1.04e7f607d405ep-4, 0x1.f28616954a85dp+7, {116, 116, 174, 0, 0, 0, 0}},
      {"gps:1,1", 10, 100, 0x1.f85939478d09bp+1, 0x1.67bccb845ec9p+1,
       0x1.40f0ebf3a395cp-4, 0x1.8a05b4bfe62f9p+7, {116, 116, 174, 0, 0, 0, 0}},
      {"gps:3,1", 10, 100, 0x1.ac460c6d1fb34p+0, 0x1.95eef9ffc85p+1,
       0x1.e8b7131364776p-4, 0x1.f5e2168fe1261p+6, {116, 116, 173, 0, 0, 0, 0}},
      {"gps:1,2,1", 10, 100, 0x1.34646334c4de8p+4, 0x1.769e2c32f78ap-1,
       0x1.28d07e5998f36p-5, 0x1.e1dcdb02739bbp+8, {116, 116, 175, 0, 0, 0, 0}},
      {"drr:2,1", 10, 100, 0x1.22ee6c24908e8p+1, 0x1.9d4bb0bebcebp+1,
       0x1.aa1ac4579d9e4p-4, 0x1.21b85b50c13f1p+7, {116, 116, 174, 0, 0, 0, 0}},
      {"drr:1,1,1", 10, 100, 0x1.2ef79fbb22614p+3, 0x1.89181f090363p+0,
       0x1.b1f6c176b0b7cp-5, 0x1.34ec9bb843cffp+8, {116, 116, 175, 0, 0, 0, 0}},
      {"sced", 10, 150, 0x1.8ed1abaaa204ap+2, 0x1.1169402aa1bep+1,
       0x1.04e7f607d405ep-4, 0x1.f28616954a85dp+7, {116, 116, 174, 0, 0, 0, 0}},
      // GPS isolation: 600 cross flows put the total load at U = 1.04,
      // yet the through class still meets its 75 Mbps share.
      {"gps:3,1", 5, 600, 0x1.ac460c6d1fb34p+0, 0x1.95eef9ffc85p+1,
       0x1.e8b7131364776p-4, 0x1.f5e2168fe1261p+6, {116, 116, 173, 0, 0, 0, 0}},
  };
  for (const auto& c : cases) {
    e2e::Scenario sc = fig2_scenario(c.n_cross, sched::SchedulerKind::kFifo);
    sc.hops = c.hops;
    ASSERT_TRUE(sched::parse_scheduler(c.spec, sc.scheduler)) << c.spec;
    const e2e::BoundResult r = Solver().solve(sc);
    const std::string name =
        std::string(c.spec) + " H=" + std::to_string(c.hops);
    EXPECT_TRUE(r.diagnostics.clean()) << name;
    EXPECT_EQ(r.delay_ms, c.delay_ms) << std::hexfloat << r.delay_ms << " "
                                      << name;
    EXPECT_EQ(r.gamma, c.gamma) << std::hexfloat << r.gamma << " " << name;
    EXPECT_EQ(r.s, c.s) << std::hexfloat << r.s << " " << name;
    EXPECT_EQ(r.sigma, c.sigma) << std::hexfloat << r.sigma << " " << name;
    EXPECT_EQ(counters_of(r.stats), c.want) << name;
  }

  // Through load 14.9 Mbps against a 12.5 Mbps share: no stable s, and
  // the stability bisection ends before any eb(s) call.
  e2e::Scenario sc = fig2_scenario(100, sched::SchedulerKind::kFifo);
  ASSERT_TRUE(sched::parse_scheduler("gps:1,7", sc.scheduler));
  const e2e::BoundResult r = Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_EQ(r.diagnostics.error, diag::SolveErrorKind::kUnstable);
  EXPECT_EQ(counters_of(r.stats), (Counters{0, 0, 0, 0, 0, 0, 0}));
}

// ----- delay profiles ----------------------------------------------------

const std::vector<double> kProfileGrid = {1e-3, 1e-5, 1e-7, 1e-9};

TEST(SolverProfile, ColdLevelsAreBitIdenticalToScalarSolves) {
  // The pinning contract: with warm_start == kCold (the default) every
  // profile level IS the scalar solve of the same scenario at that
  // epsilon -- identical bits, identical work counters.
  for (const sched::SchedulerKind sched :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf,
        sched::SchedulerKind::kSpHigh}) {
    const e2e::Scenario sc = fig2_scenario(168, sched);
    const e2e::DelayProfile profile =
        Solver().solve_profile(sc, kProfileGrid);
    ASSERT_EQ(profile.levels.size(), kProfileGrid.size());
    EXPECT_EQ(profile.stats.profile_levels,
              static_cast<std::int64_t>(kProfileGrid.size()));
    EXPECT_EQ(profile.stats.profile_chain_hits, 0);
    for (std::size_t i = 0; i < kProfileGrid.size(); ++i) {
      e2e::Scenario level = sc;
      level.epsilon = kProfileGrid[i];
      const e2e::BoundResult scalar = Solver().solve(level);
      EXPECT_EQ(profile.levels[i].delay_ms, scalar.delay_ms);
      EXPECT_EQ(profile.levels[i].gamma, scalar.gamma);
      EXPECT_EQ(profile.levels[i].s, scalar.s);
      EXPECT_EQ(profile.levels[i].sigma, scalar.sigma);
      EXPECT_EQ(profile.levels[i].delta, scalar.delta);
      EXPECT_EQ(profile.levels[i].stats.optimize_evals,
                scalar.stats.optimize_evals);
    }
  }
}

TEST(SolverProfile, WarmChainWithinToleranceAndCheaperThanCold) {
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  for (const sched::SchedulerKind sched :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf}) {
    const e2e::Scenario sc = fig2_scenario(168, sched);
    const e2e::DelayProfile cold = Solver().solve_profile(sc, kProfileGrid);
    const e2e::DelayProfile warm =
        Solver(warm_options).solve_profile(sc, kProfileGrid);
    ASSERT_EQ(warm.levels.size(), cold.levels.size());
    for (std::size_t i = 0; i < cold.levels.size(); ++i) {
      // Same tolerance the self-check battery enforces
      // (deltanc::kWarmStartRelTol in core/selfcheck.h).
      EXPECT_NEAR(warm.levels[i].delay_ms, cold.levels[i].delay_ms,
                  1e-4 * cold.levels[i].delay_ms);
    }
    // The chain must actually pay off: every post-seed level reuses
    // context, and the total search work shrinks.
    EXPECT_EQ(warm.stats.profile_chain_hits,
              static_cast<std::int64_t>(kProfileGrid.size()) - 1);
    EXPECT_LT(warm.stats.optimize_evals, cold.stats.optimize_evals);
    // d(epsilon) is non-increasing in epsilon under either policy.
    for (std::size_t i = 1; i < warm.levels.size(); ++i) {
      EXPECT_LE(warm.levels[i - 1].delay_ms, warm.levels[i].delay_ms);
      EXPECT_LE(cold.levels[i - 1].delay_ms, cold.levels[i].delay_ms);
    }
  }
}

TEST(SolverProfile, WarmProfileWorkCountersArePinned) {
  // A 16-level log-spaced grid over [1e-9, 1e-3] under the warm chain:
  // literal counts, so the chain's savings cannot erode unnoticed.  Every
  // level bisects its own stable-s bracket (57 eb(s) calls here); a
  // converged warm EDF level returns its last iterate without a final
  // re-solve.
  std::vector<double> grid;
  for (int i = 0; i < 16; ++i) grid.push_back(std::pow(10.0, -9.0 + 0.4 * i));
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const struct {
    sched::SchedulerKind sched;
    Counters want;
  } cases[] = {
      {sched::SchedulerKind::kFifo, {23624, 23624, 1452, 7700, 0, 15, 15}},
      {sched::SchedulerKind::kEdf, {64424, 64424, 2506, 20960, 48, 15, 15}},
  };
  for (const auto& c : cases) {
    const e2e::DelayProfile p =
        Solver(warm_options).solve_profile(fig2_scenario(168, c.sched), grid);
    EXPECT_EQ(counters_of(p.stats), c.want) << sched::to_string(c.sched);
  }
}

TEST(SolverProfile, LevelsFollowCallerOrderNotSolveOrder) {
  // The warm chain visits levels in descending epsilon internally, but
  // the artifact reports them in the caller's order.
  const e2e::Scenario sc = fig2_scenario(67, sched::SchedulerKind::kFifo);
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const std::vector<double> shuffled = {1e-7, 1e-3, 1e-9, 1e-5};
  const e2e::DelayProfile p = Solver(warm_options).solve_profile(sc, shuffled);
  ASSERT_EQ(p.epsilons.size(), shuffled.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    EXPECT_EQ(p.epsilons[i], shuffled[i]);
  }
  // Deeper epsilon -> larger delay, whatever the visit order was.
  EXPECT_LT(p.levels[1].delay_ms, p.levels[3].delay_ms);
  EXPECT_LT(p.levels[3].delay_ms, p.levels[0].delay_ms);
  EXPECT_LT(p.levels[0].delay_ms, p.levels[2].delay_ms);
}

TEST(SolverProfile, ValidatesTheEpsilonGrid) {
  const e2e::Scenario sc = fig2_scenario(67, sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)Solver().solve_profile(sc, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW((void)Solver().solve_profile(sc, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)Solver().solve_profile(sc, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Solver().solve_profile(sc, std::vector<double>{1e-3, -1e-6}),
      std::invalid_argument);
}

TEST(SolverProfile, CurveBackedSchedulerProfilesCarryNaNDelta) {
  e2e::Scenario sc = fig2_scenario(67, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(2.0, 1.0);
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const e2e::DelayProfile p =
      Solver(warm_options).solve_profile(sc, kProfileGrid);
  for (const e2e::BoundResult& level : p.levels) {
    EXPECT_TRUE(std::isfinite(level.delay_ms));
    EXPECT_TRUE(std::isnan(level.delta));
  }
}

}  // namespace
}  // namespace deltanc
