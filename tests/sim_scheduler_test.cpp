// The scheduler identity inside the two simulators: every registered
// spelling runs in both and is pinned bit for bit, and specs that name
// the same discipline record identical delays.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "evsim/network.h"
#include "sched/scheduler_spec.h"
#include "sim/stats.h"
#include "sim/tandem.h"

namespace deltanc {
namespace {

using sched::ClassWeights;
using sched::SchedulerSpec;

constexpr double kInf = std::numeric_limits<double>::infinity();

SchedulerSpec parsed(const char* name) {
  SchedulerSpec spec;
  if (!sched::parse_scheduler(name, spec)) {
    throw std::invalid_argument(name);
  }
  return spec;
}

// H = 3, 250 + 250 paper sources (U ~ 74 %), 20k slots, fixed seed.
sim::TandemConfig tandem(const SchedulerSpec& spec, double edf_unit) {
  sim::TandemConfig c;
  c.hops = 3;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 20000;
  c.seed = 5;
  c.scheduler = spec;
  c.edf_unit = edf_unit;
  return c;
}

evsim::EvNetworkConfig network(const SchedulerSpec& spec, double edf_unit) {
  evsim::EvNetworkConfig c;
  c.hops = 3;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 20000;
  c.seed = 5;
  c.packet_kb = 1.5;
  c.scheduler = spec;
  c.edf_unit = edf_unit;
  return c;
}

struct Pin {
  std::size_t samples;
  double p50;
  double p99;
  double max;
  double utilization;
};

void expect_pinned(const sim::DelayRecorder& d, double utilization,
                   const Pin& pin, const std::string& label) {
  ASSERT_EQ(d.count(), pin.samples) << label;
  EXPECT_EQ(d.quantile(0.5), pin.p50) << label;
  EXPECT_EQ(d.quantile(0.99), pin.p99) << label;
  EXPECT_EQ(d.max(), pin.max) << label;
  EXPECT_EQ(utilization, pin.utilization) << label;
}

// Golden: every registered spelling in both simulators (EDF with unit
// 2.0, i.e. deadlines 2 / 20), the slot simulator both fluid and at
// packet_kb 1.5.  Regenerate with %a prints only for an intentional
// simulator change.
TEST(SimulatorGolden, EveryRegisteredSpellingIsPinned) {
  struct Row {
    const char* spelling;
    Pin tandem;
    Pin tandem_packet;  ///< the slot simulator at packet_kb 1.5
    Pin network;
  };
  static constexpr Row kRows[] = {
      {"fifo",
       {17998u, 0x1.8p+1, 0x1.8p+1, 0x1.4p+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1.8p+1, 0x1.4p+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.3ae147ae09p-1, 0x1.5ffffffcfp+0, 0x1.e47ae14648p+1,
        0x1.7b87724fa8b4cp-1}},
      {"bmux",
       {17998u, 0x1.8p+1, 0x1.4p+2, 0x1.cp+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1p+2, 0x1.cp+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.4a3d70a3ap-1, 0x1.d5c28f5b3p+0, 0x1.3fffffff6p+2,
        0x1.7b87724fa8b4cp-1}},
      {"sp-high",
       {17998u, 0x1.8p+1, 0x1.8p+1, 0x1.8p+1, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1.8p+1, 0x1.8p+1, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.cccccccc8p-3, 0x1.fffffff5p-2, 0x1.63d70a3aep-1,
        0x1.7b87724fa8b4cp-1}},
      {"edf",
       {17998u, 0x1.8p+1, 0x1.8p+1, 0x1.8p+1, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1.8p+1, 0x1.8p+1, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.cccccccc8p-3, 0x1.fffffff5p-2, 0x1.63d70a3aep-1,
        0x1.7b87724fa8b4cp-1}},
      {"delta:2.5",
       {17998u, 0x1.8p+1, 0x1.4p+2, 0x1.cp+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1p+2, 0x1.cp+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.4a3d70a3ap-1, 0x1.d5c28f5b3p+0, 0x1.3fffffff6p+2,
        0x1.7b87724fa8b4cp-1}},
      {"delta:-2.5",
       {17998u, 0x1.8p+1, 0x1.8p+1, 0x1p+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1.8p+1, 0x1p+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.cccccccc8p-3, 0x1.051eb850cp-1, 0x1.328f5c2798p+1,
        0x1.7b87724fa8b4cp-1}},
      {"gps:2,1,1",
       {17998u, 0x1.8p+1, 0x1.4p+2, 0x1.8p+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1p+2, 0x1.8p+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.9eb851eb4p-2, 0x1.347ae147d44p+0, 0x1.c47ae14638p+1,
        0x1.7b87724fa8b4cp-1}},
      {"drr:1.5,1.5",
       {17998u, 0x1.8p+1, 0x1.4p+2, 0x1.8p+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1p+2, 0x1.8p+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.9eb851eb4p-2, 0x1.347ae14903p+0, 0x1.c47ae14638p+1,
        0x1.7b87724fa8b4cp-1}},
      {"sced",
       {17998u, 0x1.8p+1, 0x1p+2, 0x1.8p+2, 0x1.7b85dfa871a3bp-1},
       {441344u, 0x1.8p+1, 0x1p+2, 0x1.8p+2, 0x1.7b85dfa871a3bp-1},
       {467897u, 0x1.9eb851eb4p-2, 0x1.2a3d70a46bp+0, 0x1.b3333331cp+1,
        0x1.7b87724fa8b4cp-1}},
  };
  for (const Row& row : kRows) {
    const SchedulerSpec spec = parsed(row.spelling);
    const sim::TandemResult t = sim::run_tandem(tandem(spec, 2.0));
    expect_pinned(t.through_delay, t.mean_utilization, row.tandem,
                  std::string("sim ") + row.spelling);
    sim::TandemConfig packets = tandem(spec, 2.0);
    packets.packet_kb = 1.5;
    const sim::TandemResult tp = sim::run_tandem(packets);
    expect_pinned(tp.through_delay, tp.mean_utilization, row.tandem_packet,
                  std::string("sim packets ") + row.spelling);
    const evsim::EvNetworkResult e =
        evsim::run_event_network(network(spec, 2.0));
    expect_pinned(e.through_delay_ms, e.mean_utilization, row.network,
                  std::string("evsim ") + row.spelling);
  }
}

// ----- specs that name the same discipline -------------------------------

void expect_same_delays(const sim::DelayRecorder& a,
                        const sim::DelayRecorder& b,
                        const std::string& label) {
  ASSERT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.variance(), b.variance()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << label << " at q " << q;
  }
}

// Runs `a` and `b` (each with its own EDF unit) through both simulators
// on the same sample path and expects identical delays.
void expect_same_simulation(const SchedulerSpec& a, double unit_a,
                            const SchedulerSpec& b, double unit_b) {
  const std::string label =
      sched::to_string(a) + " vs " + sched::to_string(b);
  sim::TandemConfig ta = tandem(a, unit_a);
  sim::TandemConfig tb = tandem(b, unit_b);
  ta.slots = tb.slots = 5000;
  expect_same_delays(sim::run_tandem(ta).through_delay,
                     sim::run_tandem(tb).through_delay, "sim " + label);
  evsim::EvNetworkConfig ea = network(a, unit_a);
  evsim::EvNetworkConfig eb = network(b, unit_b);
  ea.slots = eb.slots = 5000;
  expect_same_delays(evsim::run_event_network(ea).through_delay_ms,
                     evsim::run_event_network(eb).through_delay_ms,
                     "evsim " + label);
}

TEST(SchedulerLowering, FixedDeltaEndpointsSimulateAsFifoAndStaticPriority) {
  // Delta = 0 / +inf / -inf are FIFO / blind multiplexing / SP with the
  // through class high (Def. 1), whatever the EDF unit.
  expect_same_simulation(SchedulerSpec::fixed_delta(0.0), 7.0,
                         SchedulerSpec::fifo(), 10.0);
  expect_same_simulation(SchedulerSpec::fixed_delta(kInf), 7.0,
                         SchedulerSpec::bmux(), 10.0);
  expect_same_simulation(SchedulerSpec::fixed_delta(-kInf), 7.0,
                         SchedulerSpec::sp_high(), 10.0);
}

TEST(SchedulerLowering, FixedDeltaLowersToEdfWithTheExactOffset) {
  // A finite offset runs as EDF with deadlines (max(Delta, 0),
  // max(-Delta, 0)) and ignores the unit: fixed_delta(3.5) is EDF with
  // deadlines 3.5 / 0, here spelled edf(1.75, 0) at unit 2.
  expect_same_simulation(SchedulerSpec::fixed_delta(3.5), 7.0,
                         SchedulerSpec::edf(1.75, 0.0), 2.0);
  expect_same_simulation(SchedulerSpec::fixed_delta(-1.25), 7.0,
                         SchedulerSpec::edf(0.0, 0.625), 2.0);
}

TEST(SchedulerLowering, EdfWithoutAUnitIsAnError) {
  for (const double unit : {0.0, -1.0, kInf}) {
    EXPECT_THROW((void)sim::run_tandem(tandem(SchedulerSpec::edf(), unit)),
                 std::invalid_argument)
        << unit;
    EXPECT_THROW(
        (void)evsim::run_event_network(network(SchedulerSpec::edf(), unit)),
        std::invalid_argument)
        << unit;
  }
}

TEST(SchedulerLowering, GpsCollapsesCrossWeightsInBothSimulators) {
  // The two-class simulations run GPS (SCFQ in the event simulator) on
  // (through(), cross_total()): gps:2,1,1 is gps:2,2.
  expect_same_simulation(
      SchedulerSpec::gps(ClassWeights::of({2.0, 1.0, 1.0})), 10.0,
      SchedulerSpec::gps(2.0, 2.0), 10.0);
}

TEST(SchedulerLowering, DrrCollapsesCrossQuantaInBothSimulators) {
  // The DRR guarantee depends only on Q_0 and the sum: drr:3,1,2 is
  // drr:3,3.
  expect_same_simulation(
      SchedulerSpec::drr(ClassWeights::of({3.0, 1.0, 2.0})), 10.0,
      SchedulerSpec::drr(3.0, 3.0), 10.0);
}

TEST(SchedulerLowering, ScedLowersToBothSimulatorsParameterlessly) {
  // SCED derives its rates from the flow counts and capacity: weights
  // and EDF factors a spec happens to carry change nothing.
  SchedulerSpec carrying = SchedulerSpec::sced();
  carrying.set_weights(ClassWeights::of({5.0, 1.0}));
  carrying.set_edf_factors({2.0, 3.0});
  expect_same_simulation(carrying, 7.0, SchedulerSpec::sced(), 10.0);
}

TEST(SchedulerLowering, EveryRegisteredNameLowersIntoBothSimulators) {
  // The bug this guards against: a registry name that parses fine but
  // throws or records nothing at simulation time.
  for (const char* name : {"fifo", "bmux", "sp-high", "edf", "delta:2.5",
                           "delta:-inf", "gps:2,1", "drr:1.5,1.5", "sced"}) {
    sim::TandemConfig t = tandem(parsed(name), 1.0);
    t.slots = 3000;
    EXPECT_GT(sim::run_tandem(t).through_delay.count(), 0u) << name;
    evsim::EvNetworkConfig e = network(parsed(name), 1.0);
    e.slots = 3000;
    EXPECT_GT(evsim::run_event_network(e).through_delay_ms.count(), 0u)
        << name;
  }
}

}  // namespace
}  // namespace deltanc
