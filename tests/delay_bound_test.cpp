#include "e2e/delay_bound.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "e2e/heterogeneous.h"
#include "e2e/k_procedure.h"
#include "e2e/network_epsilon.h"
#include "e2e/solver.h"
#include "e2e/theta_solver.h"

namespace deltanc::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PathParams params(int hops, double delta, double rho = 20.0,
                  double rho_c = 30.0) {
  return PathParams{100.0, hops, rho, rho_c, 0.5, 1.0, delta};
}

TEST(ThetaSolver, FifoMatchesPaperFormula) {
  // FIFO (Delta = 0) with X from Eq. (41):
  // theta_h = (h - K) gamma X / (C - (h-1) gamma) for h > K.
  const int hops = 6;
  const PathParams p = params(hops, 0.0);
  const double gamma = 0.9;
  const double sigma = 40.0;
  const int k = 3;
  const double x = sigma / (p.capacity - p.rho_cross - k * gamma);
  for (int h = k + 1; h <= hops; ++h) {
    const double expected =
        (h - k) * gamma * x / (p.capacity - (h - 1) * gamma);
    EXPECT_NEAR(theta_h(p, gamma, sigma, h, x), expected, 1e-9)
        << "h = " << h;
  }
  // For h <= K the constraint already holds at theta = 0.
  for (int h = 1; h <= k; ++h) {
    EXPECT_DOUBLE_EQ(theta_h(p, gamma, sigma, h, x), 0.0) << "h = " << h;
  }
}

TEST(ThetaSolver, BmuxThetaIsRegimeAOnly) {
  const PathParams p = params(4, kInf);
  const double gamma = 0.5, sigma = 25.0;
  for (int h = 1; h <= 4; ++h) {
    const double slack = p.capacity - p.rho_cross - h * gamma;
    EXPECT_NEAR(theta_h(p, gamma, sigma, h, 0.0), sigma / slack, 1e-9);
    // Large X drives theta to zero.
    EXPECT_DOUBLE_EQ(theta_h(p, gamma, sigma, h, sigma), 0.0);
  }
}

TEST(ThetaSolver, SpHighIgnoresCrossRate) {
  const PathParams p = params(4, -kInf);
  const double gamma = 0.5, sigma = 25.0;
  for (int h = 1; h <= 4; ++h) {
    const double ch = p.capacity - (h - 1) * gamma;
    EXPECT_NEAR(theta_h(p, gamma, sigma, h, 0.0), sigma / ch, 1e-9);
  }
}

TEST(ThetaSolver, PositiveDeltaRegimeTransitionIsContinuous) {
  // As X decreases, theta crosses from regime A (theta <= Delta) into
  // regime B; the function of X must be continuous at the switch.
  const PathParams p = params(3, 2.0);
  const double gamma = 0.4, sigma = 200.0;
  const int h = 2;
  const double slack = p.capacity - p.rho_cross - h * gamma;
  const double x_switch = sigma / slack - p.delta;  // theta_a == Delta
  ASSERT_GT(x_switch, 0.0);
  const double below = theta_h(p, gamma, sigma, h, x_switch - 1e-7);
  const double above = theta_h(p, gamma, sigma, h, x_switch + 1e-7);
  EXPECT_NEAR(below, above, 1e-4);
  EXPECT_NEAR(below, p.delta, 1e-4);
}

TEST(ThetaSolver, NegativeDeltaBracketKink) {
  // For Delta < 0 the bracket [X + Delta]_+ vanishes when X < -Delta.
  const PathParams p = params(3, -5.0);
  const double gamma = 0.4, sigma = 30.0;
  const int h = 1;
  const double ch = p.capacity;
  // X below the kink: cross traffic does not appear at all.
  EXPECT_NEAR(theta_h(p, gamma, sigma, h, 0.1), (sigma / ch) - 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(theta_h(p, gamma, sigma, h, 1.0), 0.0);  // clamped
  // X above the kink: the bracket contributes rc (X + Delta).
  const double x = 8.0;
  const double rc = p.rho_cross + gamma;
  EXPECT_NEAR(theta_h(p, gamma, sigma, h, x),
              std::max(0.0, (sigma + rc * (x + p.delta)) / ch - x), 1e-9);
}

TEST(ThetaSolver, SolutionSatisfiesConstraintWithEquality) {
  // Wherever theta_h > 0, the Eq. (38) constraint must bind.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> delta_dist(-10.0, 10.0);
  std::uniform_real_distribution<double> x_dist(0.0, 3.0);
  for (int trial = 0; trial < 60; ++trial) {
    const PathParams p = params(5, delta_dist(rng));
    const double gamma = 0.5, sigma = 35.0;
    const double x = x_dist(rng);
    for (int h = 1; h <= 5; ++h) {
      const double th = theta_h(p, gamma, sigma, h, x);
      const double ch = p.capacity - (h - 1) * gamma;
      const double rc = p.rho_cross + gamma;
      const double lhs =
          ch * (x + th) - rc * std::max(0.0, x + std::min(p.delta, th));
      EXPECT_GE(lhs, sigma - 1e-7);
      if (th > 1e-12) {
        EXPECT_NEAR(lhs, sigma, 1e-6) << "delta=" << p.delta << " h=" << h;
      }
    }
  }
}

TEST(ThetaSolver, ValidatesArguments) {
  const PathParams p = params(3, 0.0);
  EXPECT_THROW((void)theta_h(p, 0.5, 10.0, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)theta_h(p, 0.5, 10.0, 4, 0.0), std::invalid_argument);
  EXPECT_THROW((void)theta_h(p, 0.5, 10.0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW((void)theta_h(p, -0.5, 10.0, 1, 0.0), std::invalid_argument);
  // Unstable: C - rho_c - h gamma <= 0.
  const PathParams tight = params(3, 0.0, 20.0, 99.8);
  EXPECT_THROW((void)theta_h(tight, 0.5, 10.0, 1, 0.0),
               std::invalid_argument);
}

TEST(OptimizeDelay, BmuxMatchesEq43) {
  for (int hops : {1, 3, 8}) {
    const PathParams p = params(hops, kInf);
    const double gamma = 0.4, sigma = 50.0;
    const DelayResult r = deltanc::Solver().optimize(p, gamma, sigma);
    EXPECT_NEAR(r.delay, bmux_delay(p, gamma, sigma), 1e-9) << "H=" << hops;
    // Paper: optimal solution is theta_1 = ... = theta_H = 0.
    for (double th : r.theta) EXPECT_NEAR(th, 0.0, 1e-9);
  }
}

TEST(OptimizeDelay, FifoMatchesEq44) {
  for (int hops : {1, 2, 5, 10}) {
    for (double rho_c : {5.0, 30.0, 60.0}) {
      const PathParams p = params(hops, 0.0, 20.0, rho_c);
      const double gamma = 0.25 * p.gamma_limit();
      const double sigma = 50.0;
      const DelayResult r = deltanc::Solver().optimize(p, gamma, sigma);
      const double eq44 = fifo_delay(p, gamma, sigma);
      // The exact optimum can only be at or below the paper's choice.
      EXPECT_LE(r.delay, eq44 + 1e-9) << "H=" << hops << " rho_c=" << rho_c;
      EXPECT_NEAR(r.delay, eq44, 0.02 * eq44)
          << "H=" << hops << " rho_c=" << rho_c;
    }
  }
}

TEST(OptimizeDelay, SpHighMatchesClosedForm) {
  for (int hops : {1, 4, 9}) {
    const PathParams p = params(hops, -kInf);
    const double gamma = 0.3, sigma = 42.0;
    const DelayResult r = deltanc::Solver().optimize(p, gamma, sigma);
    EXPECT_NEAR(r.delay, sp_high_delay(p, gamma, sigma), 1e-9);
  }
}

TEST(OptimizeDelay, ResultIsFeasible) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> delta_dist(-20.0, 20.0);
  for (int trial = 0; trial < 40; ++trial) {
    const PathParams p = params(6, delta_dist(rng));
    const double gamma = 0.5, sigma = 60.0;
    const DelayResult r = deltanc::Solver().optimize(p, gamma, sigma);
    EXPECT_TRUE(feasible(p, gamma, sigma, r.x, r.theta))
        << "delta = " << p.delta;
    EXPECT_NEAR(r.delay, r.x + std::accumulate(r.theta.begin(),
                                               r.theta.end(), 0.0),
                1e-9);
  }
}

TEST(OptimizeDelay, MonotoneInDelta) {
  // A scheduler that gives cross traffic more precedence (larger Delta)
  // can only worsen the through flow's bound.
  const double gamma = 0.5, sigma = 60.0;
  double prev = 0.0;
  for (double delta : {-kInf, -30.0, -5.0, 0.0, 2.0, 10.0, 50.0, kInf}) {
    const PathParams p = params(5, delta);
    const double d = deltanc::Solver().optimize(p, gamma, sigma).delay;
    EXPECT_GE(d, prev - 1e-9) << "delta = " << delta;
    prev = d;
  }
}

TEST(OptimizeDelay, SingleNodeFifoIsSigmaOverC) {
  // Section III-B consistency: for H = 1 and FIFO, the bound collapses
  // to sigma / C (the stable single-node FIFO result).
  const PathParams p = params(1, 0.0);
  const double gamma = 0.5, sigma = 33.0;
  EXPECT_NEAR(deltanc::Solver().optimize(p, gamma, sigma).delay, sigma / p.capacity,
              1e-9);
}

class OptimizeDelayGridProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OptimizeDelayGridProperty, BreakpointEnumerationBeatsFineGrid) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> delta_dist(-15.0, 15.0);
  std::uniform_int_distribution<int> hop_dist(1, 12);
  std::uniform_real_distribution<double> sigma_dist(5.0, 120.0);

  const int hops = hop_dist(rng);
  const PathParams p = params(hops, delta_dist(rng));
  const double gamma = 0.3 * p.gamma_limit();
  const double sigma = sigma_dist(rng);

  const DelayResult r = deltanc::Solver().optimize(p, gamma, sigma);
  // Fine grid over X: the enumerated optimum must be at least as good.
  const double x_hi = 2.0 * sigma / (p.capacity - p.rho_cross -
                                     hops * gamma);
  double grid_best = kInf;
  for (int i = 0; i <= 4000; ++i) {
    const double x = x_hi * static_cast<double>(i) / 4000.0;
    grid_best = std::min(grid_best, objective(p, gamma, sigma, x));
  }
  EXPECT_LE(r.delay, grid_best + 1e-7);
  EXPECT_NEAR(r.delay, grid_best, 1e-3 * grid_best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeDelayGridProperty,
                         ::testing::Range<std::uint32_t>(1, 30));

TEST(KProcedure, NeverBeatsExactOptimum) {
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> delta_dist(-15.0, 15.0);
  for (int trial = 0; trial < 50; ++trial) {
    const PathParams p = params(7, delta_dist(rng));
    const double gamma = 0.4 * p.gamma_limit();
    const double sigma = 70.0;
    const DelayResult exact = deltanc::Solver().optimize(p, gamma, sigma);
    const DelayResult paper = deltanc::Solver(deltanc::e2e::Method::kPaperK).optimize(p, gamma, sigma);
    EXPECT_GE(paper.delay, exact.delay - 1e-7) << "delta = " << p.delta;
    // The paper claims near-optimality; allow a modest gap.
    EXPECT_LE(paper.delay, 1.25 * exact.delay) << "delta = " << p.delta;
    EXPECT_TRUE(feasible(p, gamma, sigma, paper.x, paper.theta))
        << "delta = " << p.delta;
  }
}

TEST(KProcedure, IndexIsUsuallyCloseToH) {
  // The paper: "in practice, K is usually close to H, resulting in a
  // near-optimal choice".  Verify on a Fig-2-like operating grid.
  for (int hops : {5, 10, 20}) {
    for (double rho_c : {35.0, 60.0}) {
      const PathParams p = params(hops, 0.0, 15.0, rho_c);
      const double gamma = 0.4 * p.gamma_limit();
      const double sigma = sigma_for_epsilon(p, gamma, 1e-9);
      const int k = k_procedure_index(p, gamma, sigma);
      EXPECT_GE(k, hops - 4) << "H=" << hops << " rho_c=" << rho_c;
      EXPECT_LE(k, hops);
    }
  }
}

TEST(KProcedure, BmuxSelectsAllZeroTheta) {
  const PathParams p = params(6, kInf);
  const double gamma = 0.3, sigma = 45.0;
  const DelayResult r = deltanc::Solver(deltanc::e2e::Method::kPaperK).optimize(p, gamma, sigma);
  EXPECT_NEAR(r.delay, bmux_delay(p, gamma, sigma), 1e-6);
}

TEST(ClosedForms, RejectWrongDelta) {
  const PathParams fifo = params(3, 0.0);
  EXPECT_THROW((void)bmux_delay(fifo, 0.3, 10.0), std::invalid_argument);
  const PathParams bmux = params(3, kInf);
  EXPECT_THROW((void)fifo_delay(bmux, 0.3, 10.0), std::invalid_argument);
  EXPECT_THROW((void)sp_high_delay(bmux, 0.3, 10.0), std::invalid_argument);
}

TEST(OptimizeDelay, RejectsGammaOutsideEq32) {
  const PathParams p = params(4, 0.0);
  EXPECT_THROW((void)deltanc::Solver().optimize(p, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)deltanc::Solver().optimize(p, p.gamma_limit(), 10.0),
               std::invalid_argument);
}


// ---------------------------------------------------------------------
// The breakpoint sweep against the full enumeration, bit for bit.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const DelayResult& got, const DelayResult& want,
                      const std::string& where) {
  EXPECT_EQ(bits(got.delay), bits(want.delay)) << where;
  EXPECT_EQ(bits(got.x), bits(want.x)) << where;
  ASSERT_EQ(got.theta.size(), want.theta.size()) << where;
  for (std::size_t h0 = 0; h0 < want.theta.size(); ++h0) {
    EXPECT_EQ(bits(got.theta[h0]), bits(want.theta[h0]))
        << where << " theta_" << h0 + 1;
  }
}

/// Runs the sweep and the full enumeration on the nodes loaded into `ws`
/// and expects identical bits; returns what the sweep did.
detail::BreakpointReport sweep_matches_enumeration(double sigma,
                                              SolveWorkspace& ws,
                                              const std::string& where) {
  const DelayResult oracle = detail::enumerate_minimize(sigma, ws);
  detail::BreakpointReport report;
  const DelayResult& swept = detail::sweep_minimize(sigma, ws, &report);
  expect_same_bits(swept, oracle, where);
  return report;
}

std::string describe(const PathParams& p, double gamma, double sigma) {
  return "H=" + std::to_string(p.hops) + " delta=" + std::to_string(p.delta) +
         " gamma=" + std::to_string(gamma) +
         " sigma=" + std::to_string(sigma);
}

TEST(BreakpointSweep, MatchesEnumerationBitForBit) {
  std::mt19937_64 rng(20100621);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Pruning is only asserted on interior inputs: with sigma ~ 0 or gamma
  // ~ 0 most candidates tie within 1e-12 and the fallback is expected.
  std::size_t interior_calls = 0, interior_fallbacks = 0, interior_evals = 0;
  SolveWorkspace ws;  // reused across every call, H up and down
  for (int hops = 1; hops <= 40; ++hops) {
    for (int rep = 0; rep < 2; ++rep) {
      const double rho_c = 10.0 + 50.0 * unit(rng);
      const double rho = 5.0 + 20.0 * unit(rng);
      const double sigma_scale = 1.0 + 400.0 * unit(rng);
      const double slack_scale = 100.0 - rho_c;
      const double deltas[] = {-kInf,
                               -(0.05 + 3.0 * unit(rng)) * sigma_scale / 100.0,
                               -0.0,
                               0.0,
                               (0.05 + 2.0 * unit(rng)) * sigma_scale /
                                   slack_scale,
                               kInf};
      for (const double delta : deltas) {
        const PathParams p{100.0, hops, rho, rho_c, 0.5, 1.0, delta};
        const double glim = p.gamma_limit();
        const double gammas[] = {1e-9 * glim, (0.05 + 0.9 * unit(rng)) * glim,
                                 (1.0 - 1e-9) * glim};
        const double sigmas[] = {0.0, 1e-9 * sigma_scale, sigma_scale,
                                 sigma_scale * (0.5 + unit(rng))};
        for (std::size_t g = 0; g < 3; ++g) {
          for (std::size_t k = 0; k < 4; ++k) {
            const double gamma = gammas[g];
            const double sigma = sigmas[k];
            const std::string where = describe(p, gamma, sigma);
            detail::load_nodes(p, gamma, ws);
            const detail::BreakpointReport report =
                sweep_matches_enumeration(sigma, ws, where);
            // The public entry point runs the same kernel.
            const DelayResult oracle = detail::enumerate_minimize(sigma, ws);
            expect_same_bits(optimize_delay(p, gamma, sigma, ws), oracle,
                             where);
            if (g == 1 && k >= 2) {
              ++interior_calls;
              interior_fallbacks += report.fell_back ? 1 : 0;
              interior_evals += report.exact_evals;
            }
          }
        }
      }
    }
  }
  // The sweep must actually prune: a handful of exact evaluations per
  // call, not 3H+1, and no fallback on well-separated inputs.
  EXPECT_EQ(interior_fallbacks, 0u);
  EXPECT_LT(interior_evals, 3 * interior_calls);
}

TEST(BreakpointSweep, KinksAtZeroAreCountedOnce) {
  // FIFO (Delta = +/-0): the bracket kink -Delta sits exactly at X = 0
  // and must enter the slope at 0+ once, not also as a walk step.
  SolveWorkspace ws;
  for (const double delta : {0.0, -0.0}) {
    for (int hops : {1, 2, 7, 25}) {
      const PathParams p = params(hops, delta);
      const double glim = p.gamma_limit();
      for (const double gamma : {0.01 * glim, 0.5 * glim, 0.99 * glim}) {
        for (const double sigma : {0.0, 3.0, 250.0}) {
          detail::load_nodes(p, gamma, ws);
          const detail::BreakpointReport report = sweep_matches_enumeration(
              sigma, ws, describe(p, gamma, sigma));
          EXPECT_FALSE(report.fell_back) << describe(p, gamma, sigma);
        }
      }
    }
  }
}

TEST(BreakpointSweep, BmuxFlatStretchKeepsLargerX) {
  // BMUX: F is flat between the last two kinks; the tie rule keeps the
  // all-theta-zero corner X = sigma / (C - rho_c - H gamma) (Eq. 43).
  SolveWorkspace ws;
  for (int hops : {1, 2, 5, 40}) {
    const PathParams p = params(hops, kInf);
    const double gamma = 0.3 * p.gamma_limit();
    const double sigma = 45.0;
    detail::load_nodes(p, gamma, ws);
    sweep_matches_enumeration(sigma, ws, describe(p, gamma, sigma));
    const DelayResult& r = optimize_delay(p, gamma, sigma, ws);
    EXPECT_EQ(bits(r.x), bits(ws.candidates[static_cast<std::size_t>(hops)]));
    for (const double theta : r.theta) EXPECT_EQ(theta, 0.0);
  }
}

TEST(BreakpointSweep, WorkspaceReuseAcrossPathLengths) {
  const PathParams long_path = params(40, -5.0);
  const PathParams short_path = params(2, 2.0);
  const double g_long = 0.4 * long_path.gamma_limit();
  const double g_short = 0.4 * short_path.gamma_limit();
  SolveWorkspace fresh;
  const DelayResult want = optimize_delay(short_path, g_short, 30.0, fresh);
  SolveWorkspace reused;
  (void)optimize_delay(long_path, g_long, 80.0, reused);
  expect_same_bits(optimize_delay(short_path, g_short, 30.0, reused), want,
                   "H=40 then H=2");
}

TEST(BreakpointSweep, GuardFallsBackOnNearTies) {
  // One node with Delta just below sigma/slack: F takes the values L1 at
  // X = 0, L2 = L1 + 0.285 z at the theta_a kinks, and L3 = L2 + 0.021 z
  // at the spurious theta_b zero, z = sigma/slack.  Scanning sigma puts
  // L2 inside the exact window while L3, just outside it, sits within
  // the tie tolerance of L2: the guard cannot prove L3 irrelevant and
  // must fall back.  Every call still matches the enumeration.
  const double slack = 1.0 - 0.29 - 0.01;
  SolveWorkspace ws;
  std::size_t fallbacks = 0;
  for (double sigma = 1e-13; sigma < 1e-10; sigma *= 1.01) {
    const PathParams p{1.0, 1, 0.0, 0.29, 0.5, 1.0, 0.05 * sigma / slack};
    detail::load_nodes(p, 0.01, ws);
    fallbacks +=
        sweep_matches_enumeration(sigma, ws, describe(p, 0.01, sigma))
                .fell_back
            ? 1
            : 0;
  }
  EXPECT_GT(fallbacks, 0u);
}

TEST(BreakpointSweep, NonFiniteSigmaFallsBack) {
  SolveWorkspace ws;
  for (const double delta : {-kInf, -5.0, 0.0, 2.0, kInf}) {
    const PathParams p = params(4, delta);
    const double gamma = 0.4 * p.gamma_limit();
    detail::load_nodes(p, gamma, ws);
    const detail::BreakpointReport report =
        sweep_matches_enumeration(kInf, ws, describe(p, gamma, kInf));
    EXPECT_TRUE(report.fell_back);
    EXPECT_EQ(optimize_delay(p, gamma, kInf, ws).delay, kInf);
  }
}

/// The historical heterogeneous loop, verbatim through hetero_theta_h.
DelayResult hetero_reference(const HeteroPath& p, double gamma,
                             double sigma) {
  std::vector<double> candidates{0.0};
  for (int h = 1; h <= p.hops(); ++h) {
    const NodeParams& n = p.nodes[static_cast<std::size_t>(h - 1)];
    const double ch = n.capacity - (h - 1) * gamma;
    const double rc = n.rho_cross + gamma;
    const double slack = ch - rc;
    if (n.delta > 0.0) {
      candidates.push_back(sigma / slack);
      if (std::isfinite(n.delta)) {
        candidates.push_back(sigma / slack - n.delta);
        candidates.push_back((sigma + rc * n.delta) / slack);
      }
    } else {
      candidates.push_back(sigma / ch);
      if (std::isfinite(n.delta)) {
        candidates.push_back(-n.delta);
        candidates.push_back((sigma + rc * n.delta) / slack);
      }
    }
  }
  double best_x = 0.0;
  double best_f = kInf;
  for (double x : candidates) {
    if (!(x >= 0.0)) continue;
    double f = x;
    for (int h = 1; h <= p.hops(); ++h) {
      f += hetero_theta_h(p, gamma, sigma, h, x);
    }
    if (f < best_f - 1e-12 || (f < best_f + 1e-12 && x > best_x)) {
      best_f = std::min(best_f, f);
      best_x = x;
    }
  }
  DelayResult result{best_f, best_x, {}};
  for (int h = 1; h <= p.hops(); ++h) {
    result.theta.push_back(hetero_theta_h(p, gamma, sigma, h, best_x));
  }
  return result;
}

TEST(BreakpointSweep, HeterogeneousPathsMatchBitForBit) {
  std::mt19937_64 rng(1101123);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  SolveWorkspace ws;
  std::size_t fallbacks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    HeteroPath p;
    p.rho = 2.0 + 10.0 * unit(rng);
    p.alpha = 0.5;
    p.m = 1.0;
    const int hops = 1 + static_cast<int>(rng() % 40);
    const double sigma = trial % 17 == 0 ? 0.0 : 1.0 + 300.0 * unit(rng);
    for (int h = 0; h < hops; ++h) {
      const double capacity = 50.0 + 100.0 * unit(rng);
      const double rho_c = 0.5 * capacity * unit(rng);
      const double scale = sigma / (capacity - rho_c) + 1.0;
      double delta = 0.0;
      switch (rng() % 6) {
        case 0: delta = -kInf; break;
        case 1: delta = -3.0 * scale * unit(rng); break;
        case 2: delta = -0.0; break;
        case 3: delta = 0.0; break;
        case 4: delta = 2.0 * scale * unit(rng); break;
        default: delta = kInf; break;
      }
      p.nodes.push_back(NodeParams{capacity, rho_c, 1.0, delta});
    }
    const double glim = p.gamma_limit();
    for (const double frac : {1e-6, 0.05 + 0.9 * unit(rng), 1.0 - 1e-9}) {
      const double gamma = frac * glim;
      const std::string where = "trial " + std::to_string(trial) +
                                " H=" + std::to_string(hops) +
                                " gamma=" + std::to_string(gamma);
      const DelayResult want = hetero_reference(p, gamma, sigma);
      expect_same_bits(hetero_optimize_delay(p, gamma, sigma), want, where);
      detail::load_nodes(p, gamma, ws);
      const detail::BreakpointReport report =
          sweep_matches_enumeration(sigma, ws, where);
      fallbacks += report.fell_back ? 1 : 0;
    }
  }
  EXPECT_EQ(fallbacks, 0u);
}

}  // namespace
}  // namespace deltanc::e2e
