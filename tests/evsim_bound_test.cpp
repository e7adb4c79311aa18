// Cross-model validation: the analytic end-to-end bounds (derived under
// the fluid assumption) must dominate the NON-PREEMPTIVE packet
// simulation's delay quantiles too, once the per-hop blocking allowance
// of one packet transmission (L / C per node) is added.  With the paper's
// 1.5 kb packets the allowance is 0.015 ms per hop -- the fluid bounds
// effectively hold as-is.
#include <gtest/gtest.h>

#include <cmath>

#include "core/analyzer.h"
#include "core/scenario.h"
#include "e2e/solver.h"
#include "evsim/network.h"

namespace deltanc {
namespace {

class EvsimBoundDomination : public ::testing::TestWithParam<sched::SchedulerKind> {
};

TEST_P(EvsimBoundDomination, FluidBoundPlusBlockingDominatesPacketSim) {
  const int hops = 3;
  const double packet_kb = 1.5;
  const e2e::Scenario sc = ScenarioBuilder()
                               .hops(hops)
                               .through_flows(250)
                               .cross_flows(250)
                               .scheduler(GetParam())
                               .build();
  const PathAnalyzer analyzer(sc);

  evsim::EvNetworkConfig c;
  c.hops = hops;
  c.n_through = sc.n_through;
  c.n_cross = sc.n_cross;
  c.packet_kb = packet_kb;
  c.slots = 200000;
  c.seed = 41;
  // EDF deadlines resolve against the analytic bound's unit d_e2e / H.
  c.scheduler = sc.scheduler;
  if (sc.scheduler.needs_fixed_point()) {
    c.edf_unit = analyzer.bound().delay_ms / hops;
  }
  const evsim::EvNetworkResult r = evsim::run_event_network(c);
  ASSERT_GT(r.through_delay_ms.count(), 100000u);

  const double eps_sim =
      std::max(100.0 / static_cast<double>(r.through_delay_ms.count()),
               1e-4);
  e2e::Scenario at_eps = sc;
  at_eps.epsilon = eps_sim;
  const double bound = deltanc::Solver().solve(at_eps).delay_ms;
  const double blocking_allowance =
      hops * packet_kb / sc.capacity;  // one packet transmission per hop
  EXPECT_LE(r.through_delay_ms.quantile(1.0 - eps_sim),
            bound + blocking_allowance)
      << "bound " << bound << " at eps " << eps_sim;
}

INSTANTIATE_TEST_SUITE_P(Schedulers, EvsimBoundDomination,
                         ::testing::Values(sched::SchedulerKind::kFifo,
                                           sched::SchedulerKind::kBmux,
                                           sched::SchedulerKind::kSpHigh,
                                           sched::SchedulerKind::kEdf));

// Both static priorities (through low = bmux, through high = sp-high)
// must keep the packet simulator's delay quantiles under the matching
// analytic bound at several tail depths.  Seeded, and tolerance-gated by
// the non-preemptive blocking allowance of one packet transmission per
// hop.
TEST(EvsimSpQuantiles, SpLoweringsStayBelowAnalyticBounds) {
  const int hops = 2;
  const double packet_kb = 1.5;
  for (const sched::SchedulerSpec& spec :
       {sched::SchedulerSpec::bmux(), sched::SchedulerSpec::sp_high()}) {
    const e2e::Scenario sc = ScenarioBuilder()
                                 .hops(hops)
                                 .through_flows(200)
                                 .cross_flows(200)
                                 .scheduler(spec)
                                 .build();
    evsim::EvNetworkConfig c;
    c.hops = hops;
    c.n_through = sc.n_through;
    c.n_cross = sc.n_cross;
    c.packet_kb = packet_kb;
    c.slots = 150000;
    c.seed = 7;
    c.scheduler = spec;
    const evsim::EvNetworkResult r = evsim::run_event_network(c);
    ASSERT_GT(r.through_delay_ms.count(), 50000u);
    const double blocking_allowance = hops * packet_kb / sc.capacity;
    for (const double eps : {1e-2, 1e-3}) {
      e2e::Scenario at_eps = sc;
      at_eps.epsilon = eps;
      const double bound = deltanc::Solver().solve(at_eps).delay_ms;
      ASSERT_TRUE(std::isfinite(bound));
      EXPECT_LE(r.through_delay_ms.quantile(1.0 - eps),
                bound + blocking_allowance)
          << sched::to_string(spec) << " at eps " << eps;
    }
  }
}

// The curve-backed lowerings (DRR's deficit counters, SCED's deadline
// curves, SCFQ's virtual time) must keep the packet simulator's delay
// quantiles under the matching rate-latency analytic bound at several
// tail depths.  Quanta equal the packet size so the classic DRR
// guarantee (quantum >= max packet) applies to the packetized policy;
// loads are symmetric so SCED's load-proportional split is well-defined
// and comparable.
TEST(EvsimCurveQuantiles, CurveLoweringsStayBelowAnalyticBounds) {
  const int hops = 2;
  const double packet_kb = 1.5;
  for (const sched::SchedulerSpec& spec :
       {sched::SchedulerSpec::drr(1.5, 1.5), sched::SchedulerSpec::sced(),
        sched::SchedulerSpec::gps(1.0, 1.0)}) {
    const e2e::Scenario sc = ScenarioBuilder()
                                 .hops(hops)
                                 .through_flows(200)
                                 .cross_flows(200)
                                 .scheduler(spec)
                                 .build();
    evsim::EvNetworkConfig c;
    c.hops = hops;
    c.n_through = sc.n_through;
    c.n_cross = sc.n_cross;
    c.packet_kb = packet_kb;
    c.slots = 150000;
    c.seed = 7;
    c.scheduler = spec;
    const evsim::EvNetworkResult r = evsim::run_event_network(c);
    ASSERT_GT(r.through_delay_ms.count(), 50000u);
    const double blocking_allowance = hops * packet_kb / sc.capacity;
    for (const double eps : {1e-2, 1e-3}) {
      e2e::Scenario at_eps = sc;
      at_eps.epsilon = eps;
      const double bound = deltanc::Solver().solve(at_eps).delay_ms;
      ASSERT_TRUE(std::isfinite(bound));
      EXPECT_LE(r.through_delay_ms.quantile(1.0 - eps),
                bound + blocking_allowance)
          << sched::to_string(spec) << " at eps " << eps;
    }
  }
}

}  // namespace
}  // namespace deltanc
