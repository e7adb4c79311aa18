#include "e2e/param_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "e2e/additive_baseline.h"
#include "e2e/delay_bound.h"
#include "e2e/network_epsilon.h"
#include "e2e/solver.h"

namespace deltanc::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Scenario paper_scenario(int hops, int n_through, int n_cross,
                        sched::SchedulerKind sched) {
  Scenario sc;
  sc.hops = hops;
  sc.n_through = n_through;
  sc.n_cross = n_cross;
  sc.scheduler = sched;
  return sc;
}

TEST(ParamSearch, MaxStableSBehaviour) {
  // 100 + 100 paper flows at ~0.149 Mbps each on 100 Mbps: stable, and
  // there is a finite s beyond which eb exceeds the fair share.
  Scenario sc = paper_scenario(2, 100, 100, sched::SchedulerKind::kFifo);
  const double s_max = max_stable_s(sc);
  EXPECT_TRUE(std::isfinite(s_max));
  EXPECT_GT(s_max, 0.0);
  const double at_limit =
      (sc.n_through + sc.n_cross) * sc.source.effective_bandwidth(s_max);
  EXPECT_LT(at_limit, sc.capacity);
  // Overload: mean rate alone exceeds capacity.
  sc.n_through = 400;
  sc.n_cross = 400;
  EXPECT_EQ(max_stable_s(sc), 0.0);
  // Peak rate fits entirely: every s is stable.
  sc.n_through = 2;
  sc.n_cross = 2;
  EXPECT_EQ(max_stable_s(sc), kInf);
}

TEST(ParamSearch, UnstableScenarioGivesInfiniteBound) {
  const Scenario sc = paper_scenario(3, 400, 400, sched::SchedulerKind::kBmux);
  const BoundResult r = deltanc::Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
}

TEST(ParamSearch, BoundsArePositiveFiniteAndOrdered) {
  // At moderate utilization: SP-high <= EDF-favoured <= FIFO <= BMUX.
  const int n = 168;  // ~50% total with N0 = Nc
  const BoundResult bmux =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kBmux));
  const BoundResult fifo =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kFifo));
  const BoundResult sp =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kSpHigh));
  const BoundResult edf =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kEdf));
  ASSERT_TRUE(std::isfinite(bmux.delay_ms));
  EXPECT_GT(sp.delay_ms, 0.0);
  EXPECT_LE(sp.delay_ms, edf.delay_ms + 1e-6);
  EXPECT_LE(edf.delay_ms, fifo.delay_ms + 1e-6);
  EXPECT_LE(fifo.delay_ms, bmux.delay_ms + 1e-6);
}

TEST(ParamSearch, FifoApproachesBmuxOnLongPaths) {
  // The paper's headline observation (Fig. 2): FIFO bounds become
  // indistinguishable from BMUX already at H = 5.
  const int n_cross = 236;  // U ~ 50% with N0 = 100
  const double f2 =
      deltanc::Solver().solve(paper_scenario(2, 100, n_cross, sched::SchedulerKind::kFifo))
          .delay_ms;
  const double b2 =
      deltanc::Solver().solve(paper_scenario(2, 100, n_cross, sched::SchedulerKind::kBmux))
          .delay_ms;
  const double f5 =
      deltanc::Solver().solve(paper_scenario(5, 100, n_cross, sched::SchedulerKind::kFifo))
          .delay_ms;
  const double b5 =
      deltanc::Solver().solve(paper_scenario(5, 100, n_cross, sched::SchedulerKind::kBmux))
          .delay_ms;
  EXPECT_LT(f2, 0.75 * b2);             // visibly different at H = 2
  EXPECT_GT(f5, 0.95 * b5);             // indistinguishable at H = 5
}

TEST(ParamSearch, EdfKeepsItsAdvantageOnLongPaths) {
  // EDF with d*_c = 10 d*_0 stays well below BMUX even at H = 10 --
  // scheduling *does* matter on long paths.
  const int n_cross = 236;
  const double e10 =
      deltanc::Solver().solve(paper_scenario(10, 100, n_cross, sched::SchedulerKind::kEdf))
          .delay_ms;
  const double b10 =
      deltanc::Solver().solve(paper_scenario(10, 100, n_cross, sched::SchedulerKind::kBmux))
          .delay_ms;
  ASSERT_TRUE(std::isfinite(e10));
  EXPECT_LT(e10, 0.6 * b10);
}

TEST(ParamSearch, EdfFixedPointIsSelfConsistent) {
  // Re-solving with the resolved Delta must reproduce the fixed point.
  const Scenario sc = paper_scenario(5, 150, 150, sched::SchedulerKind::kEdf);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  const sched::EdfFactors& edf = sc.scheduler.edf_factors();
  const double factor_gap = edf.own_factor - edf.cross_factor;
  EXPECT_NEAR(r.delta, factor_gap * r.delay_ms / sc.hops,
              1e-4 * std::abs(r.delta));
  const BoundResult again =
      deltanc::Solver(Method::kExactOpt).solve_at(sc, r.delta);
  EXPECT_NEAR(again.delay_ms, r.delay_ms, 5e-3 * r.delay_ms);
}

TEST(ParamSearch, BestForDeltaNeverWorseThanDenseScan) {
  // Regression for the refinement bug: the final re-solve used to happen
  // at the *refined* s even when the coarse scan had already found a
  // better point, so the returned bound could exceed the scan optimum.
  // A dense brute-force (s, gamma) grid built from the public primitives
  // must never beat the search by more than grid resolution.
  const Scenario sc = paper_scenario(3, 100, 200, sched::SchedulerKind::kFifo);
  for (double delta : {0.0, kInf, -kInf}) {
    SCOPED_TRACE(delta);
    const BoundResult r = deltanc::Solver(Method::kExactOpt).solve_at(sc, delta);
    ASSERT_TRUE(std::isfinite(r.delay_ms));
    const double s_lo = 1e-4;
    const double s_hi = max_stable_s(sc) * 0.999;
    double dense_best = kInf;
    for (int i = 0; i <= 160; ++i) {
      const double s = s_lo * std::pow(s_hi / s_lo, i / 160.0);
      const double eb = sc.source.effective_bandwidth(s);
      const PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                         sc.n_cross * eb, s, 1.0, delta};
      const double glim = p.gamma_limit();
      if (!(glim > 0.0)) continue;
      for (int j = 1; j <= 120; ++j) {
        const double gamma = glim * j / 121.0;
        const double sigma = sigma_for_epsilon(p, gamma, sc.epsilon);
        dense_best = std::min(dense_best,
                              deltanc::Solver().optimize(p, gamma, sigma).delay);
      }
    }
    EXPECT_LE(r.delay_ms, dense_best * 1.001);
    // The returned tuple is the point the search actually evaluated:
    // re-solving at (s, gamma, sigma) reproduces delay_ms exactly.
    const double eb = sc.source.effective_bandwidth(r.s);
    const PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                       sc.n_cross * eb, r.s, 1.0, delta};
    EXPECT_EQ(sigma_for_epsilon(p, r.gamma, sc.epsilon), r.sigma);
    EXPECT_EQ(deltanc::Solver().optimize(p, r.gamma, r.sigma).delay, r.delay_ms);
  }
}

TEST(ParamSearch, EdfReturnsConsistentTuple) {
  // Regression for the fixed-point bug: delay_ms used to be the damped
  // average while gamma/s/sigma came from the last solve at a different
  // Delta.  After the final re-solve, every field describes one solve.
  const Scenario sc = paper_scenario(5, 150, 150, sched::SchedulerKind::kEdf);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_TRUE(r.stats.edf_converged);
  EXPECT_GT(r.stats.edf_iterations, 0);
  const double eb = sc.source.effective_bandwidth(r.s);
  const PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                     sc.n_cross * eb, r.s, 1.0, r.delta};
  EXPECT_EQ(sigma_for_epsilon(p, r.gamma, sc.epsilon), r.sigma);
  EXPECT_EQ(deltanc::Solver().optimize(p, r.gamma, r.sigma).delay, r.delay_ms);
  // And the resolved Delta agrees with the returned delay to the fixed
  // point's own tolerance.
  const sched::EdfFactors& edf = sc.scheduler.edf_factors();
  const double factor_gap = edf.own_factor - edf.cross_factor;
  EXPECT_NEAR(r.delta, factor_gap * r.delay_ms / sc.hops,
              1e-5 * std::abs(r.delta));
}

/// The stable-s limit as a fixed 200-step bisection, with no early exit:
/// the reference max_stable_s must reproduce bit for bit.
double reference_stable_s(const Scenario& sc) {
  const double n = sc.n_through + sc.n_cross;
  if (n * sc.source.mean_rate() >= sc.capacity) return 0.0;
  if (n * sc.source.peak_rate() < sc.capacity) return kInf;
  double lo = 1e-9, hi = 1.0;
  while (n * sc.source.effective_bandwidth(hi) < sc.capacity) hi *= 2.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (n * sc.source.effective_bandwidth(mid) < sc.capacity) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(ParamSearch, StableSBisectionExitIsBitExact) {
  // The bisection stops once its midpoint rounds onto an end; the result
  // must equal the full 200 steps bit for bit, over the Fig. 2 flow
  // counts, other capacities and sources, and the edge n * peak == C,
  // where eb(s) reaches the peak only near s = 2^50.
  const traffic::MmooSource sources[] = {
      traffic::MmooSource(1.5, 0.989, 0.9),  // the paper's source
      traffic::MmooSource(1.0, 0.989, 0.9),
      traffic::MmooSource(1.5, 0.875, 0.5),
      traffic::MmooSource(4.0, 0.99, 0.2),
  };
  int cases = 0;
  int bisected = 0;  // neither 0 (overload) nor +inf (peak fits)
  for (const traffic::MmooSource& source : sources) {
    for (const double capacity : {50.0, 100.0, 99.999, 100.001, 1000.0}) {
      for (int n_cross = 0; n_cross <= 500; n_cross += 50) {
        Scenario sc = paper_scenario(2, 100, n_cross,
                                     sched::SchedulerKind::kFifo);
        sc.source = source;
        sc.capacity = capacity;
        const double got = max_stable_s(sc);
        EXPECT_EQ(got, reference_stable_s(sc))
            << std::hexfloat << "C " << capacity << ", n_cross " << n_cross
            << ", peak " << source.peak_kb();
        ++cases;
        if (got > 0.0 && std::isfinite(got)) ++bisected;
      }
    }
  }
  EXPECT_EQ(cases, 220);
  EXPECT_GT(bisected, 100);

  // 100 flows at peak 1 kb/slot on C = 100: n * peak == C exactly.
  Scenario edge = paper_scenario(2, 100, 0, sched::SchedulerKind::kFifo);
  edge.source = traffic::MmooSource(1.0, 0.989, 0.9);
  ASSERT_EQ(edge.n_through * edge.source.peak_rate(), edge.capacity);
  const double s_edge = max_stable_s(edge);
  EXPECT_EQ(s_edge, reference_stable_s(edge)) << std::hexfloat << s_edge;
  EXPECT_GT(s_edge, 1e15);
}

TEST(ParamSearch, SolveStatsCountTheWork) {
  const Scenario sc = paper_scenario(4, 100, 200, sched::SchedulerKind::kFifo);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_GT(r.stats.optimize_evals, 0);
  // One sigma evaluation per optimizer evaluation (both happen inside
  // the gamma inner loop).
  EXPECT_EQ(r.stats.sigma_evals, r.stats.optimize_evals);
  // One eb(s) call per s probe (plus the stable-s bisection), far fewer
  // than the per-gamma optimizer evaluations.
  EXPECT_GT(r.stats.eb_evals, 0);
  EXPECT_LT(r.stats.eb_evals * 10, r.stats.optimize_evals);
  EXPECT_EQ(r.stats.edf_iterations, 0);  // no fixed point for FIFO
  EXPECT_TRUE(r.stats.edf_converged);
  EXPECT_GE(r.stats.scan_ms, 0.0);
  EXPECT_GE(r.stats.refine_ms, 0.0);

  SolveStats sum;
  sum += r.stats;
  sum += r.stats;
  EXPECT_EQ(sum.optimize_evals, 2 * r.stats.optimize_evals);
  EXPECT_EQ(sum.edf_iterations, 0);
  EXPECT_TRUE(sum.edf_converged);
}

TEST(ParamSearch, Fig2NonEdfBoundsArePinned) {
  // The exact doubles of the Fig. 2 (H = 5, eps = 1e-6) grid for the
  // delta-independent schedulers, pinned bit-for-bit: the hot-path
  // refactoring (workspace reuse, the eb(s) memo and its removal,
  // hoisted sigma) must not perturb any non-EDF result.  Regenerate
  // only for an intentional algorithm change (print with %a).
  struct Golden {
    int n_cross;
    sched::SchedulerKind sched;
    double delay_ms, gamma, s;
  };
  const Golden goldens[] = {
      {67, sched::SchedulerKind::kFifo, 0x1.6126458d64984p+4, 0x1.8ceaed36017b9p-1,
       0x1.7f822a740c65ap-4},
      {67, sched::SchedulerKind::kBmux, 0x1.62f9aace0d634p+4, 0x1.73257fd5cbeb3p-1,
       0x1.80af0e1516472p-4},
      {67, sched::SchedulerKind::kSpHigh, 0x1.a80e65f9ad2c8p+3, 0x1.7f877ff7d2f14p-1,
       0x1.801e6bab8aa78p-4},
      {202, sched::SchedulerKind::kFifo, 0x1.184f61904a5b3p+6, 0x1.75cc06e469a8cp-1,
       0x1.7afa88467c891p-5},
      {202, sched::SchedulerKind::kBmux, 0x1.1bf9a680e7466p+6, 0x1.35bbf06189289p-1,
       0x1.78367fc1ae58fp-5},
      {202, sched::SchedulerKind::kSpHigh, 0x1.8b064d292a4p+4, 0x1.4e0269a4f6d63p-1,
       0x1.b2412245fae83p-5},
      {404, sched::SchedulerKind::kFifo, 0x1.49503568d5f88p+8, 0x1.d911a18f66e76p-2,
       0x1.5215bca99053ep-6},
      {404, sched::SchedulerKind::kBmux, 0x1.548cb87dd5bafp+8, 0x1.2372bd72b0a24p-2,
       0x1.51150d427a48cp-6},
      {404, sched::SchedulerKind::kSpHigh, 0x1.113af9313e434p+6, 0x1.103e84dabccdap-2,
       0x1.604ba6698ff01p-6},
      {538, sched::SchedulerKind::kFifo, 0x1.053936dc61ecp+11, 0x1.6b2a8a7ee6f0ep-5,
       0x1.1968dc51fd566p-8},
      {538, sched::SchedulerKind::kBmux, 0x1.4cf730845299bp+11, 0x1.7220150ed15c7p-5,
       0x1.19211a78e7816p-8},
      {538, sched::SchedulerKind::kSpHigh, 0x1.a25363d608cdcp+8, 0x1.657bb90fb379ep-5,
       0x1.19a3740923946p-8},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message() << "Nc=" << g.n_cross << " sched="
                                    << static_cast<int>(g.sched));
    Scenario sc = paper_scenario(5, 100, g.n_cross, g.sched);
    sc.epsilon = 1e-6;
    const BoundResult r = deltanc::Solver().solve(sc);
    EXPECT_EQ(r.delay_ms, g.delay_ms);
    EXPECT_EQ(r.gamma, g.gamma);
    EXPECT_EQ(r.s, g.s);
  }
}

TEST(ParamSearch, PaperKMethodIsCloseToExact) {
  const Scenario sc = paper_scenario(5, 100, 236, sched::SchedulerKind::kFifo);
  const BoundResult exact = deltanc::Solver(Method::kExactOpt).solve(sc);
  const BoundResult paper = deltanc::Solver(Method::kPaperK).solve(sc);
  EXPECT_GE(paper.delay_ms, exact.delay_ms - 1e-6);
  EXPECT_LE(paper.delay_ms, 1.1 * exact.delay_ms);
}

TEST(ParamSearch, DelayGrowsWithUtilization) {
  double prev = 0.0;
  for (int n_cross : {50, 150, 250, 350}) {
    const double d =
        deltanc::Solver().solve(paper_scenario(3, 100, n_cross, sched::SchedulerKind::kFifo))
            .delay_ms;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(ParamSearch, DelayGrowsWithPathLength) {
  double prev = 0.0;
  for (int hops : {1, 2, 4, 8}) {
    const double d =
        deltanc::Solver().solve(paper_scenario(hops, 100, 200, sched::SchedulerKind::kBmux))
            .delay_ms;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(ParamSearch, NearlyLinearScalingInH) {
  // Theta(H log H): between H = 4 and H = 16 the bound grows by a factor
  // well below quadratic scaling (16x would be quadratic: ratio 16).
  const double d4 =
      deltanc::Solver().solve(paper_scenario(4, 100, 100, sched::SchedulerKind::kBmux))
          .delay_ms;
  const double d16 =
      deltanc::Solver().solve(paper_scenario(16, 100, 100, sched::SchedulerKind::kBmux))
          .delay_ms;
  EXPECT_GT(d16 / d4, 3.5);   // superlinear-ish (H log H)
  EXPECT_LT(d16 / d4, 8.0);   // far from quadratic
}

TEST(ParamSearch, ValidatesScenario) {
  Scenario sc = paper_scenario(0, 100, 100, sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)deltanc::Solver().solve(sc), std::invalid_argument);
  sc.hops = 2;
  sc.epsilon = 0.0;
  EXPECT_THROW((void)deltanc::Solver().solve(sc), std::invalid_argument);
}

TEST(ParamSearch, ValidateCollectsEveryViolation) {
  Scenario sc = paper_scenario(0, 0, -1, sched::SchedulerKind::kFifo);
  sc.epsilon = 2.0;
  const diag::ValidationReport report = sc.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 4u);  // hops, n_through, n_cross, epsilon
  const std::string msg = report.message();
  for (const char* field : {"hops", "n_through", "n_cross", "epsilon"}) {
    EXPECT_NE(msg.find(field), std::string::npos) << msg;
  }
  // And Solver::solve surfaces the same multi-field message.
  try {
    (void)deltanc::Solver().solve(sc);
    FAIL() << "accepted an invalid scenario";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("hops"), std::string::npos);
  }
}

TEST(ParamSearch, UnstableScenarioIsClassified) {
  // Overload is not an error: the solve succeeds with a +inf bound, and
  // the diagnostics channel says why.
  const Scenario sc = paper_scenario(3, 400, 400, sched::SchedulerKind::kBmux);
  const diag::ValidationReport report = sc.validate();
  EXPECT_TRUE(report.ok());        // well-formed...
  EXPECT_FALSE(report.stable());   // ...but overloaded
  const BoundResult r = deltanc::Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_EQ(r.diagnostics.error, diag::SolveErrorKind::kUnstable);
  EXPECT_FALSE(r.diagnostics.message.empty());
}

TEST(ParamSearch, ConvergedSolveHasCleanDiagnostics) {
  // A healthy EDF solve: no error, no warnings, no recoveries recorded.
  const BoundResult r =
      deltanc::Solver().solve(paper_scenario(5, 150, 150, sched::SchedulerKind::kEdf));
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_TRUE(r.diagnostics.clean());
  EXPECT_EQ(r.stats.retries, 0);
  EXPECT_EQ(r.stats.fallbacks, 0);
}

TEST(ParamSearch, GpsBoundIsSelfConsistentAndPaysBurstsOnce) {
  Scenario sc = paper_scenario(5, 168, 168, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_TRUE(std::isnan(r.delta));  // no Delta coordinate by contract
  // Tuple self-consistency against the closed-form 1-D objective: the
  // guaranteed rate is the weight share of the link, gamma its slack over
  // the through aggregate's effective bandwidth at the returned s, sigma
  // the union-bound backlog for the target epsilon.
  const double rate = 0.5 * sc.capacity;
  ASSERT_GT(r.s, 0.0);
  EXPECT_DOUBLE_EQ(r.gamma,
                   rate - sc.n_through * sc.source.effective_bandwidth(r.s));
  const double sigma =
      std::log(1.0 / ((1.0 - std::exp(-r.s * r.gamma)) * sc.epsilon)) / r.s;
  EXPECT_DOUBLE_EQ(r.sigma, sigma);
  EXPECT_DOUBLE_EQ(r.delay_ms, sigma / rate);
  // Pay-bursts-once: the GPS leftover has zero latency, so the e2e bound
  // does not grow with the hop count (unlike every Delta-backed bound).
  Scenario longer = sc;
  longer.hops = 20;
  EXPECT_EQ(deltanc::Solver().solve(longer).delay_ms, r.delay_ms);
}

TEST(ParamSearch, DrrIsGpsPlusTheRoundRobinLatency) {
  // Equal quanta give DRR the same guaranteed rate as GPS(1,1); the only
  // difference is the deterministic one-round latency (sum Q - Q_0)/C
  // per hop, which shifts the bound by exactly H/C here.
  Scenario sc = paper_scenario(5, 168, 168, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  const BoundResult gps = deltanc::Solver().solve(sc);
  sc.scheduler = sched::SchedulerSpec::drr(1.0, 1.0);
  const BoundResult drr = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(gps.delay_ms));
  EXPECT_DOUBLE_EQ(drr.delay_ms,
                   sc.hops * (1.0 / sc.capacity) + gps.delay_ms);
}

TEST(ParamSearch, ScedEqualsGpsOnSymmetricLoads) {
  // Load-proportional sharing with N0 = Nc is the equal two-class split.
  Scenario sc = paper_scenario(4, 200, 200, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::sced();
  const BoundResult sced = deltanc::Solver().solve(sc);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  const BoundResult gps = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(gps.delay_ms));
  EXPECT_DOUBLE_EQ(sced.delay_ms, gps.delay_ms);
}

TEST(ParamSearch, GpsIsolationSurvivesTotalOverload) {
  // Total utilization above 1, but the through class's guaranteed share
  // 0.75 C still exceeds its own load: GPS keeps a finite bound where
  // the aggregate-facing BMUX diverges.
  Scenario sc = paper_scenario(5, 310, 410, sched::SchedulerKind::kBmux);
  ASSERT_GE(sc.utilization(), 1.0);
  const BoundResult bmux = deltanc::Solver().solve(sc);
  EXPECT_EQ(bmux.delay_ms, kInf);
  sc.scheduler = sched::SchedulerSpec::gps(3.0, 1.0);
  ASSERT_LT(sc.n_through * sc.source.mean_rate(), 0.75 * sc.capacity);
  const BoundResult gps = deltanc::Solver().solve(sc);
  EXPECT_TRUE(std::isfinite(gps.delay_ms));
  EXPECT_TRUE(gps.diagnostics.ok());
}

TEST(ParamSearch, UnstableThroughClassIsClassifiedForCurveBacked) {
  // The through load alone exceeds the GPS(1,1) guarantee of half the
  // link: +inf with the same kUnstable classification as the Delta path.
  Scenario sc = paper_scenario(3, 400, 10, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  ASSERT_GT(sc.n_through * sc.source.mean_rate(), 0.5 * sc.capacity);
  const BoundResult r = deltanc::Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_EQ(r.diagnostics.error, diag::SolveErrorKind::kUnstable);
  EXPECT_FALSE(r.diagnostics.message.empty());
}

TEST(ParamSearch, ValidateRejectsMalformedClassWeights) {
  // set_weights is the only way to smuggle a malformed weight list past
  // the factories (the codec uses it); validate() must name the field.
  Scenario sc = paper_scenario(3, 100, 100, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  sched::ClassWeights bad;
  bad.count = 1;
  sc.scheduler.set_weights(bad);
  const diag::ValidationReport report = sc.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.message().find("scheduler.weights"), std::string::npos)
      << report.message();
}

TEST(AdditiveBaseline, PerNodeDelaysGrowAlongThePath) {
  const PathParams p{100.0, 8, 20.0, 30.0, 0.5, 1.0, kInf};
  const auto per_node = additive_bmux_per_node(p, 0.5, 1e-9);
  ASSERT_EQ(per_node.size(), 8u);
  for (std::size_t h = 1; h < per_node.size(); ++h) {
    EXPECT_GT(per_node[h], per_node[h - 1]) << "h = " << h;
  }
}

TEST(AdditiveBaseline, SumOfPerNodeEqualsTotal) {
  const PathParams p{100.0, 5, 20.0, 30.0, 0.5, 1.0, kInf};
  const auto per_node = additive_bmux_per_node(p, 0.4, 1e-9);
  double sum = 0.0;
  for (double d : per_node) sum += d;
  EXPECT_NEAR(additive_bmux_delay(p, 0.4, 1e-9), sum, 1e-9);
}

TEST(AdditiveBaseline, MuchLooserThanNetworkServiceCurve) {
  // Fig. 4: adding per-node bounds is loose and gets relatively worse
  // with H.
  const Scenario sc5 = paper_scenario(5, 168, 168, sched::SchedulerKind::kBmux);
  const Scenario sc10 = paper_scenario(10, 168, 168, sched::SchedulerKind::kBmux);
  const double net5 = deltanc::Solver().solve(sc5).delay_ms;
  const double add5 = best_additive_bmux_bound(sc5).delay_ms;
  const double net10 = deltanc::Solver().solve(sc10).delay_ms;
  const double add10 = best_additive_bmux_bound(sc10).delay_ms;
  EXPECT_GT(add5, 1.5 * net5);
  EXPECT_GT(add10, 3.0 * net10);
  EXPECT_GT(add10 / add5, net10 / net5);  // relative gap widens
}

TEST(AdditiveBaseline, SuperlinearGrowth) {
  // O(H^3 log H)-style growth: doubling H should much more than double
  // the additive bound.
  const double a5 =
      best_additive_bmux_bound(paper_scenario(5, 168, 168, sched::SchedulerKind::kBmux))
          .delay_ms;
  const double a10 =
      best_additive_bmux_bound(paper_scenario(10, 168, 168, sched::SchedulerKind::kBmux))
          .delay_ms;
  EXPECT_GT(a10 / a5, 3.0);
}

TEST(AdditiveBaseline, Validation) {
  const PathParams p{100.0, 3, 20.0, 30.0, 0.5, 1.0, kInf};
  EXPECT_THROW((void)additive_bmux_delay(p, 0.0, 1e-9),
               std::invalid_argument);
  EXPECT_THROW((void)additive_bmux_delay(p, 0.5, 0.0), std::invalid_argument);
  // Unstable gamma: per-node envelope rate reaches the leftover rate.
  const PathParams tight{100.0, 3, 45.0, 45.0, 0.5, 1.0, kInf};
  EXPECT_EQ(additive_bmux_delay(tight, 4.0, 1e-9), kInf);
}

}  // namespace
}  // namespace deltanc::e2e
