#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "evsim/network.h"
#include "sim/tandem.h"
#include "evsim/server.h"

namespace deltanc::evsim {
namespace {

using sched::SchedulerSpec;

sim::Chunk pkt(int flow, double kb, std::uint64_t seq) {
  return sim::Chunk{flow, kb, kb, 0.0, 0.0, 0.0, seq};
}

TEST(EvServer, TransmitsAtConfiguredRate) {
  Server s(10.0, make_delta_key_policy({0}, {0.0}));
  s.arrive(pkt(0, 25.0, 0), 0.0);
  EXPECT_TRUE(s.busy());
  EXPECT_DOUBLE_EQ(s.next_completion(), 2.5);
  const Departure d = s.complete_one();
  EXPECT_DOUBLE_EQ(d.time, 2.5);
  EXPECT_FALSE(s.busy());
  EXPECT_DOUBLE_EQ(s.transmitted_kb(), 25.0);
}

TEST(EvServer, BackToBackService) {
  Server s(10.0, make_delta_key_policy({0}, {0.0}));
  s.arrive(pkt(0, 10.0, 0), 0.0);
  s.arrive(pkt(0, 20.0, 1), 0.0);
  EXPECT_DOUBLE_EQ(s.backlog_kb(), 30.0);
  EXPECT_DOUBLE_EQ(s.complete_one().time, 1.0);
  EXPECT_DOUBLE_EQ(s.complete_one().time, 3.0);  // starts at 1.0
  EXPECT_THROW((void)s.complete_one(), std::logic_error);
}

TEST(EvServer, IdlePeriodThenRestart) {
  Server s(10.0, make_delta_key_policy({0}, {0.0}));
  s.arrive(pkt(0, 10.0, 0), 0.0);
  (void)s.complete_one();  // done at 1.0
  s.arrive(pkt(0, 10.0, 1), 5.0);
  EXPECT_DOUBLE_EQ(s.next_completion(), 6.0);
}

TEST(EvServer, RejectsTimeTravel) {
  Server s(10.0, make_delta_key_policy({0}, {0.0}));
  s.arrive(pkt(0, 1.0, 0), 5.0);
  EXPECT_THROW(s.arrive(pkt(0, 1.0, 1), 2.0), std::logic_error);
  EXPECT_THROW(Server(0.0, make_delta_key_policy({0}, {0.0})),
               std::invalid_argument);
  EXPECT_THROW(Server(1.0, nullptr), std::invalid_argument);
}

TEST(EvPolicy, NonPreemptivePriorityInversion) {
  // A big low-priority packet enters service first; the high-priority
  // packet arriving just after must wait the full residual transmission
  // -- the blocking term the fluid model ignores.
  Server s(10.0, make_delta_key_policy({0, 1}, {0.0, 0.0}));  // flow 1 high
  s.arrive(pkt(0, 50.0, 0), 0.0);          // 5 ms transmission
  s.arrive(pkt(1, 1.0, 1), 0.1);
  const Departure first = s.complete_one();
  EXPECT_EQ(first.packet.flow, 0);  // cannot be preempted
  const Departure second = s.complete_one();
  EXPECT_EQ(second.packet.flow, 1);
  EXPECT_NEAR(second.time, 5.1, 1e-12);  // blocked 4.9 ms + own 0.1
}

TEST(EvPolicy, SpServesHighFirstWhenQueued) {
  Server s(10.0, make_delta_key_policy({0, 1}, {0.0, 0.0}));
  s.arrive(pkt(0, 1.0, 0), 0.0);  // in service
  s.arrive(pkt(0, 1.0, 1), 0.0);
  s.arrive(pkt(1, 1.0, 2), 0.0);
  (void)s.complete_one();
  EXPECT_EQ(s.complete_one().packet.flow, 1);  // high priority jumps queue
  EXPECT_EQ(s.complete_one().packet.flow, 0);
}

TEST(EvPolicy, EdfPicksEarliestDeadline) {
  Server s(10.0, make_delta_key_policy({0, 0}, {10.0, 2.0}));
  s.arrive(pkt(0, 1.0, 0), 0.0);  // deadline 10, in service
  s.arrive(pkt(0, 1.0, 1), 0.0);  // deadline 10
  s.arrive(pkt(1, 1.0, 2), 0.5);  // deadline 2.5 -> earliest
  (void)s.complete_one();
  EXPECT_EQ(s.complete_one().packet.flow, 1);
}

TEST(EvPolicy, EqualLevelAndTagServeInSeqOrder) {
  // Ties on (level, tag) go by seq, not by enqueue order: the order
  // SCFQ's and SCED's equal stamps rely on.
  auto q = make_delta_key_policy({0, 0}, {2.0, 0.0});
  sim::Chunk late = pkt(1, 1.0, 9);
  late.arrival = 3.0;  // tag 3
  sim::Chunk early = pkt(0, 1.0, 4);
  early.arrival = 1.0;  // tag 1 + 2 = 3
  sim::Chunk mid = pkt(1, 1.0, 7);
  mid.arrival = 3.0;  // tag 3
  q->enqueue(late);
  q->enqueue(early);
  q->enqueue(mid);
  EXPECT_EQ(q->dequeue()->seq, 4u);
  EXPECT_EQ(q->dequeue()->seq, 7u);
  EXPECT_EQ(q->dequeue()->seq, 9u);
  EXPECT_FALSE(q->dequeue().has_value());
}

TEST(EvPolicy, ScfqSharesByWeight) {
  // Saturate the server with both flows backlogged; throughput over a
  // busy period must split ~2:1 by weight.
  Server s(10.0, make_scfq_policy({2.0, 1.0}));
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    s.arrive(pkt(0, 1.0, seq++), 0.0);
    s.arrive(pkt(1, 1.0, seq++), 0.0);
  }
  double served0 = 0.0, served1 = 0.0;
  // Drain 30 packets (3 ms of a saturated 10 kb/ms server).
  for (int i = 0; i < 30; ++i) {
    const Departure d = s.complete_one();
    (d.packet.flow == 0 ? served0 : served1) += d.packet.size_kb;
  }
  EXPECT_NEAR(served0 / served1, 2.0, 0.25);
}

TEST(EvPolicy, ValidatesConfiguration) {
  EXPECT_THROW((void)make_scfq_policy({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)make_delta_key_policy({}, {}), std::invalid_argument);
  EXPECT_THROW((void)make_delta_key_policy({0, 0}, {0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)make_delta_key_policy(
                   {0, 0}, {0.0, std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW((void)make_drr_policy({}), std::invalid_argument);
  EXPECT_THROW((void)make_drr_policy({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)make_sced_policy({}), std::invalid_argument);
  EXPECT_THROW((void)make_sced_policy({1.0, -1.0}), std::invalid_argument);
  Server s(1.0, make_delta_key_policy({0, 1}, {0.0, 0.0}));
  EXPECT_THROW(s.arrive(pkt(5, 1.0, 0), 0.0), std::out_of_range);
  // A zero SCED rate is legal only for a class that never sends.
  Server z(1.0, make_sced_policy({1.0, 0.0}));
  z.arrive(pkt(0, 1.0, 0), 0.0);
  EXPECT_THROW(z.arrive(pkt(1, 1.0, 1), 0.0), std::invalid_argument);
}

TEST(EvNetwork, LightLoadDelayIsTransmissionOnly) {
  EvNetworkConfig c;
  c.hops = 3;
  c.n_through = 5;
  c.n_cross = 5;
  c.slots = 20000;
  const EvNetworkResult r = run_event_network(c);
  ASSERT_GT(r.through_delay_ms.count(), 0u);
  // Three hops, each 1.5 kb / 100 kb/ms = 0.015 ms, plus in-slot queueing
  // of the handful of same-slot packets.
  EXPECT_LT(r.through_delay_ms.quantile(0.5), 1.0);
  EXPECT_GE(r.through_delay_ms.quantile(0.0), 3 * 0.015 - 1e-9);
}

TEST(EvNetwork, UtilizationMatchesOfferedLoad) {
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 100;
  c.n_cross = 100;
  c.slots = 50000;
  const EvNetworkResult r = run_event_network(c);
  const double load = 200.0 * c.source.mean_rate() / c.capacity_kb_per_ms;
  EXPECT_NEAR(r.mean_utilization, load, 0.1 * load);
}

TEST(EvNetwork, SchedulerOrderingUnderLoad) {
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 60000;
  c.edf_unit = 3.0;  // deadlines 3 / 30 ms
  const auto tail = [&](const SchedulerSpec& spec) {
    EvNetworkConfig cc = c;
    cc.scheduler = spec;
    return run_event_network(cc).through_delay_ms.quantile(0.999);
  };
  const double hi = tail(SchedulerSpec::sp_high());
  const double edf = tail(SchedulerSpec::edf(1.0, 10.0));
  const double fifo = tail(SchedulerSpec::fifo());
  const double lo = tail(SchedulerSpec::bmux());
  EXPECT_LE(hi, edf + 0.5);
  EXPECT_LE(edf, fifo + 0.5);
  EXPECT_LE(fifo, lo + 0.5);
  EXPECT_LT(hi, lo);
}

TEST(EvNetwork, AgreesWithSlottedSimulatorOnSmallPackets) {
  // With 1.5 kb packets the non-preemptive event simulation and the
  // slotted fluid simulation must tell the same story at the tail.  The
  // slotted model quantizes every hop up to one full slot, so its delay
  // overstates the event-driven one by at most ~(hops + 1) slots.
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 60000;
  const double ev_tail =
      run_event_network(c).through_delay_ms.quantile(0.99);
  sim::TandemConfig sc;
  sc.hops = c.hops;
  sc.n_through = c.n_through;
  sc.n_cross = c.n_cross;
  sc.slots = c.slots;
  const double slotted_tail =
      sim::run_tandem(sc).through_delay.quantile(0.99);
  EXPECT_LE(ev_tail, slotted_tail);
  EXPECT_GE(ev_tail + c.hops + 1.5, slotted_tail);
}

TEST(EvNetwork, ScfqTracksFluidGpsTail) {
  // Packetized fair queueing (SCFQ) must land near the slotted fluid GPS
  // tail with equal weights -- the two fair-sharing implementations agree
  // when packets are small.
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 60000;
  c.scheduler = SchedulerSpec::gps();
  const double scfq_tail =
      run_event_network(c).through_delay_ms.quantile(0.99);
  sim::TandemConfig sc;
  sc.hops = c.hops;
  sc.n_through = c.n_through;
  sc.n_cross = c.n_cross;
  sc.slots = c.slots;
  sc.scheduler = SchedulerSpec::gps();
  const double gps_tail =
      sim::run_tandem(sc).through_delay.quantile(0.99);
  EXPECT_LE(scfq_tail, gps_tail);  // slotted model adds hop quantization
  EXPECT_GE(scfq_tail + c.hops + 1.5, gps_tail);
}

TEST(EvNetwork, ScfqWeightsShiftTheThroughTail) {
  // Giving the through class 4x the weight must not increase (and under
  // load should reduce) its tail delay relative to the 1:4 setting.
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 300;
  c.n_cross = 300;
  c.slots = 60000;
  c.scheduler = SchedulerSpec::gps(4.0, 1.0);
  const double favoured =
      run_event_network(c).through_delay_ms.quantile(0.999);
  c.scheduler = SchedulerSpec::gps(1.0, 4.0);
  const double penalized =
      run_event_network(c).through_delay_ms.quantile(0.999);
  EXPECT_LE(favoured, penalized + 1e-9);
}

TEST(EvPolicy, DrrSharesByQuantum) {
  // Saturated server, 3:1 quanta: a full round serves 3 kb of flow 0 and
  // 1 kb of flow 1, so throughput over whole rounds splits exactly 3:1.
  Server s(10.0, make_drr_policy({3.0, 1.0}));
  std::uint64_t seq = 0;
  for (int i = 0; i < 60; ++i) {
    s.arrive(pkt(0, 1.0, seq++), 0.0);
    s.arrive(pkt(1, 1.0, seq++), 0.0);
  }
  double served0 = 0.0, served1 = 0.0;
  for (int i = 0; i < 40; ++i) {  // ~10 rounds of 4 packets
    const Departure d = s.complete_one();
    (d.packet.flow == 0 ? served0 : served1) += d.packet.size_kb;
  }
  EXPECT_NEAR(served0 / served1, 3.0, 0.5);
}

TEST(EvPolicy, DrrDeficitAccumulatesAcrossRounds) {
  // Quantum smaller than the packet: a class must bank its deficit over
  // several rounds before it may send (Shreedhar & Varghese, Sec. 3).
  // Flow 1 arrives first so its backlog is what the banking rounds
  // serve in the meantime.
  Server s(10.0, make_drr_policy({1.0, 4.0}));
  std::uint64_t seq = 0;
  for (int i = 0; i < 6; ++i) s.arrive(pkt(1, 2.0, seq++), 0.0);
  s.arrive(pkt(0, 3.0, seq++), 0.0);  // needs 3 visits of quantum 1
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) order.push_back(s.complete_one().packet.flow);
  // Visits 1-2 grant flow 0 only deficit 1 then 2 (< 3 kb); visit 3
  // finally releases it, after five of flow 1's packets.
  EXPECT_EQ(order, (std::vector<int>{1, 1, 1, 1, 1, 0}));
}

TEST(EvPolicy, ScedOrdersByDeadlineCurves) {
  // Rate split 9:1 -- flow 0's deadlines advance 9x slower, so with both
  // backlogged at t=0 flow 0's first packets beat flow 1's second.
  Server s(10.0, make_sced_policy({9.0, 1.0}));
  std::uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) {
    s.arrive(pkt(0, 1.0, seq++), 0.0);  // deadlines 1/9, 2/9, 3/9
    s.arrive(pkt(1, 1.0, seq++), 0.0);  // deadlines 1, 2, 3
  }
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) order.push_back(s.complete_one().packet.flow);
  EXPECT_EQ(order, (std::vector<int>{0, 0, 0, 1}));
}

TEST(EvNetwork, DrrDegeneratesToFifoWithoutCrossTraffic) {
  // With no cross traffic there is only one backlogged class, so DRR is
  // work-conserving single-queue service: delays match FIFO exactly.
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 200;
  c.n_cross = 0;
  c.slots = 20000;
  c.scheduler = SchedulerSpec::fifo();
  const EvNetworkResult fifo = run_event_network(c);
  c.scheduler = SchedulerSpec::drr(1.0, 1.0);
  const EvNetworkResult drr = run_event_network(c);
  ASSERT_EQ(drr.through_delay_ms.count(), fifo.through_delay_ms.count());
  EXPECT_DOUBLE_EQ(drr.through_delay_ms.quantile(0.5),
                   fifo.through_delay_ms.quantile(0.5));
  EXPECT_DOUBLE_EQ(drr.through_delay_ms.quantile(1.0),
                   fifo.through_delay_ms.quantile(1.0));
}

TEST(EvNetwork, EqualQuantaDrrTracksTheFifoTail) {
  // Equal quanta under symmetric load approximate per-class fair
  // sharing of a fair workload: the DRR tail must land near FIFO's
  // (statistical agreement, not exact -- service order differs).
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 60000;
  c.scheduler = SchedulerSpec::fifo();
  const double fifo_tail =
      run_event_network(c).through_delay_ms.quantile(0.99);
  c.scheduler = SchedulerSpec::drr(1.5, 1.5);
  const double drr_tail =
      run_event_network(c).through_delay_ms.quantile(0.99);
  EXPECT_NEAR(drr_tail, fifo_tail, 0.5 * fifo_tail + 1.0);
}

TEST(EvNetwork, ScedAgreesWithEqualWeightScfqOnSymmetricLoads) {
  // Load-proportional SCED rates with n_through == n_cross give each
  // class half the link -- the same virtual-time sharing SCFQ(1,1)
  // implements, so the two tails must agree statistically.
  EvNetworkConfig c;
  c.hops = 2;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = 60000;
  c.scheduler = SchedulerSpec::gps(1.0, 1.0);
  const double scfq_tail =
      run_event_network(c).through_delay_ms.quantile(0.99);
  c.scheduler = SchedulerSpec::sced();
  const double sced_tail =
      run_event_network(c).through_delay_ms.quantile(0.99);
  EXPECT_NEAR(sced_tail, scfq_tail, 0.5 * scfq_tail + 1.0);
}

TEST(EvNetwork, ValidatesConfig) {
  EvNetworkConfig c;
  c.packet_kb = 0.0;
  EXPECT_THROW((void)run_event_network(c), std::invalid_argument);
  // Non-finite sizes would otherwise simulate nothing: zero samples and
  // zero utilization instead of an error.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EvNetworkConfig ok;
  ok.slots = 10;
  EXPECT_NO_THROW((void)run_event_network(ok));
  for (const double v : {nan, inf, -inf, 0.0}) {
    EvNetworkConfig bad = ok;
    bad.packet_kb = v;
    EXPECT_THROW((void)run_event_network(bad), std::invalid_argument)
        << "packet_kb " << v;
    bad = ok;
    bad.capacity_kb_per_ms = v;
    EXPECT_THROW((void)run_event_network(bad), std::invalid_argument)
        << "capacity " << v;
    bad = ok;
    bad.edf_unit = v;
    EXPECT_THROW((void)run_event_network(bad), std::invalid_argument)
        << "edf_unit " << v;
  }
  // A NaN offset would leave the Delta-key heap without a strict weak
  // order.
  for (const SchedulerSpec& spec :
       {SchedulerSpec::fixed_delta(nan), SchedulerSpec::edf(nan, 10.0),
        SchedulerSpec::edf(1.0, nan)}) {
    EvNetworkConfig bad = ok;
    bad.scheduler = spec;
    EXPECT_THROW((void)run_event_network(bad), std::invalid_argument)
        << to_string(spec);
  }
}

}  // namespace
}  // namespace deltanc::evsim
