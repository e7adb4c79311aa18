#include "e2e/solver.h"
#include "sched/single_node_bound.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "e2e/delay_bound.h"
#include "e2e/network_epsilon.h"
#include "sim/mmoo_source.h"
#include "sim/scheduler_queue.h"
#include "sim/stats.h"

namespace deltanc::sched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kC = 100.0;

/// Two linear EBB-style envelopes: through (rate 20) and cross (rate 30),
/// both with unit prefactor and the given decay.
std::vector<traffic::StatEnvelope> linear_envelopes(double gamma,
                                                    double alpha) {
  const auto env = [&](double rate) {
    return traffic::EbbTraffic(1.0, rate, alpha).sample_path_envelope(gamma);
  };
  return {env(20.0), env(30.0)};
}

TEST(SingleNodeBound, FifoIsSigmaOverC) {
  // Linear envelopes and FIFO: d(sigma) = sigma / C (Section III-B).
  const auto env = linear_envelopes(0.5, 0.5);
  for (double sigma : {10.0, 40.0, 120.0}) {
    EXPECT_NEAR(single_node_delay_for_sigma(kC, DeltaMatrix::fifo(2), env, 0,
                                            sigma),
                sigma / kC, 1e-6);
  }
}

TEST(SingleNodeBound, BmuxIsSigmaOverLeftover) {
  // Blind multiplexing: d(sigma) = sigma / (C - rho_c - gamma).
  const double gamma = 0.5;
  const auto env = linear_envelopes(gamma, 0.5);
  const double sigma = 50.0;
  EXPECT_NEAR(single_node_delay_for_sigma(kC, DeltaMatrix::bmux(2, 0), env, 0,
                                          sigma),
              sigma / (kC - 30.0 - gamma), 1e-6);
}

TEST(SingleNodeBound, MatchesEndToEndMachineryAtH1) {
  // The H = 1 end-to-end solve and the direct single-node analysis must
  // coincide for the same (gamma, sigma).
  const double gamma = 0.5, alpha = 0.5;
  const auto env = linear_envelopes(gamma, alpha);
  for (double delta : {-10.0, -2.0, 0.0, 3.0, kInf}) {
    const e2e::PathParams p{kC, 1, 20.0, 30.0, alpha, 1.0, delta};
    const double sigma = 60.0;
    const double e2e_d = deltanc::Solver().optimize(p, gamma, sigma).delay;
    const double back = std::isfinite(delta) ? -delta : -kInf;
    const DeltaMatrix dm({{0.0, delta}, {back, 0.0}});
    const double node_d =
        single_node_delay_for_sigma(kC, dm, env, 0, sigma);
    EXPECT_NEAR(node_d, e2e_d, 1e-5 * (1.0 + e2e_d)) << "delta = " << delta;
  }
}

TEST(SingleNodeBound, EpsilonPathUsesInfConvolution) {
  // d at target epsilon = d at sigma(epsilon) of the combined bound.
  const double gamma = 0.5, alpha = 0.5;
  const auto env = linear_envelopes(gamma, alpha);
  const DeltaMatrix dm = DeltaMatrix::fifo(2);
  const double eps = 1e-6;
  const double sigma =
      nc::inf_convolution(env[0].eps, env[1].eps).sigma_for(eps);
  EXPECT_NEAR(single_node_delay_bound(kC, dm, env, 0, eps),
              single_node_delay_for_sigma(kC, dm, env, 0, sigma), 1e-9);
}

TEST(SingleNodeBound, EdfOrderingAcrossThreeFlows) {
  // Three flows with EDF: tighter own deadline -> smaller bound.
  const double gamma = 0.5, alpha = 0.5;
  const auto mk = [&](double rate) {
    return traffic::EbbTraffic(1.0, rate, alpha).sample_path_envelope(gamma);
  };
  const std::vector<traffic::StatEnvelope> env{mk(20.0), mk(25.0), mk(15.0)};
  const DeltaMatrix dm = DeltaMatrix::edf(std::vector<double>{2.0, 8.0, 20.0});
  const double d0 = single_node_delay_bound(kC, dm, env, 0, 1e-9);
  const double d1 = single_node_delay_bound(kC, dm, env, 1, 1e-9);
  const double d2 = single_node_delay_bound(kC, dm, env, 2, 1e-9);
  EXPECT_LT(d0, d1);
  EXPECT_LT(d1, d2);
}

TEST(SingleNodeBound, OverloadIsInfinite) {
  const auto mk = [&](double rate) {
    return traffic::EbbTraffic(1.0, rate, 0.5).sample_path_envelope(0.5);
  };
  const std::vector<traffic::StatEnvelope> env{mk(60.0), mk(50.0)};
  EXPECT_EQ(single_node_delay_for_sigma(kC, DeltaMatrix::fifo(2), env, 0,
                                        10.0),
            kInf);
}

TEST(SingleNodeBound, Validation) {
  const auto env = linear_envelopes(0.5, 0.5);
  EXPECT_THROW((void)single_node_delay_bound(0.0, DeltaMatrix::fifo(2), env,
                                             0, 1e-9),
               std::invalid_argument);
  EXPECT_THROW((void)single_node_delay_bound(kC, DeltaMatrix::fifo(3), env, 0,
                                             1e-9),
               std::invalid_argument);
  EXPECT_THROW((void)single_node_delay_bound(kC, DeltaMatrix::fifo(2), env, 0,
                                             0.0),
               std::invalid_argument);
  EXPECT_THROW((void)single_node_delay_for_sigma(kC, DeltaMatrix::fifo(2),
                                                 env, 0, -1.0),
               std::invalid_argument);
}

TEST(SingleNodeBound, DominatesSimulatedDelayQuantile) {
  // Monte-Carlo anchor: the bound at epsilon = 1e-3 must dominate the
  // empirical 99.9th-percentile delay of a single FIFO node.
  const auto model = traffic::MmooSource::paper_source();
  const int n_thr = 250, n_cross = 250;
  // Analytic side: EBB envelopes from the effective bandwidth.
  const double s = 0.1, gamma = 1.0;
  const auto mk = [&](int n) {
    return traffic::EbbTraffic(1.0, n * model.effective_bandwidth(s), s)
        .sample_path_envelope(gamma);
  };
  const std::vector<traffic::StatEnvelope> env{mk(n_thr), mk(n_cross)};
  const double bound =
      single_node_delay_bound(kC, DeltaMatrix::fifo(2), env, 0, 1e-3);

  // Simulation side.
  sim::Xoshiro256ss rng(31);
  sim::MmooAggregateSim thr(model, n_thr, rng);
  sim::Xoshiro256ss crng = rng;
  crng.jump();
  sim::MmooAggregateSim cross(model, n_cross, crng);
  const auto node = sim::make_delta_key({0, 0}, {0.0, 0.0});
  sim::DelayRecorder delays;
  std::vector<sim::Chunk> done;
  std::uint64_t seq = 0;
  for (int t = 0; t < 150000; ++t) {
    const double x = t;
    const double a = thr.step(rng);
    if (a > 0.0) node->enqueue(sim::Chunk{0, a, a, x, x, 0.0, seq++});
    const double c = cross.step(crng);
    if (c > 0.0) node->enqueue(sim::Chunk{1, c, c, x, x, 0.0, seq++});
    done.clear();
    node->serve(kC, &done);
    for (const auto& chunk : done) {
      if (chunk.flow == 0 && chunk.origin > 1000) {
        delays.add(static_cast<double>(t + 1) - chunk.origin);
      }
    }
  }
  EXPECT_LE(delays.quantile(0.999), bound);
}

}  // namespace
}  // namespace deltanc::sched
