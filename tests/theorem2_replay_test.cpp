// Theorem 2 replayed through both simulators.  The necessity proof's
// greedy scenario (sched/tightness.h) -- every flow k sends A_k = E_k
// from t = 0, and the tagged flow-j arrival at the maximizing t* waits
// for everything with higher or equal precedence -- is fed into one node
// running the simulator's Delta-key queue.  The worst tagged delay it
// realizes must match the Eq. (24) bound min_delay_bound: the bound-vs-
// simulation tests check the simulators from above, this one from below.
//
// Every flow-j arrival of the replay is a candidate tagged arrival; the
// largest recorded delay is the one at the maximizing t*.  Among equal
// keys the tagged flow arrives last, the adversarial tie-break of the
// proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "evsim/server.h"
#include "nc/curve.h"
#include "sched/delta.h"
#include "sched/schedulability.h"
#include "sched/tightness.h"
#include "sim/scheduler_queue.h"
#include "traffic/tspec.h"

namespace deltanc {
namespace {

constexpr double kCapacity = 100.0;  // kb per slot (= per ms)
constexpr double kPacketKb = 1.0;    // evsim packet size
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A scheduler twice over: as Delta constants for the analysis and as the
/// Delta-key (level, offset) the simulators run.
struct Keyed {
  std::string name;
  sched::DeltaMatrix delta;
  std::vector<int> level;
  std::vector<double> offset;
};

/// FIFO, 3-level SP, EDF and BMUX over three flows.  SP needs distinct
/// levels: offsets alone cannot rank three classes strictly.
std::vector<Keyed> schedulers(const std::vector<double>& deadlines) {
  return {
      {"FIFO", sched::DeltaMatrix::fifo(3), {0, 0, 0}, {0.0, 0.0, 0.0}},
      {"SP", sched::DeltaMatrix::static_priority(std::vector<int>{0, 1, 2}),
       {0, 1, 2}, {0.0, 0.0, 0.0}},
      {"EDF", sched::DeltaMatrix::edf(deadlines), {0, 0, 0}, deadlines},
      {"BMUX", sched::DeltaMatrix::bmux(3, 0), {0, 0, 0}, {kInf, 0.0, 0.0}},
  };
}

/// End of the greedy busy period: the first doubling T with
/// sum_k E_k(T) <= C T (every envelope's rate sums below C here).
double busy_period(std::span<const nc::Curve> env) {
  double t = 1.0;
  const auto excess = [&](double x) {
    double sum = 0.0;
    for (const nc::Curve& e : env) sum += e.eval(x);
    return sum - kCapacity * x;
  };
  while (excess(t) > 0.0) t *= 2.0;
  return t;
}

/// Slot simulator: flow k's slot-s chunk is E_k(s) - E_k(s - 1), with the
/// burst E_k(0+) at s = 0.  Returns the largest tagged delay in slots.
double replay_slots(const Keyed& s, std::span<const nc::Curve> env,
                    int tagged, std::int64_t horizon) {
  const auto node = sim::make_delta_key(s.level, s.offset);
  std::vector<int> order;  // the tagged flow enqueues last in its slot
  for (int k = 0; k < 3; ++k) {
    if (k != tagged) order.push_back(k);
  }
  order.push_back(tagged);
  std::uint64_t seq = 0;
  std::size_t tagged_queued = 0;
  double worst = 0.0;
  std::vector<sim::Chunk> done;
  for (std::int64_t t = 0; t < horizon || tagged_queued > 0; ++t) {
    for (const int k : order) {
      if (t >= horizon) break;  // arrivals stop; the queue drains
      const nc::Curve& e = env[static_cast<std::size_t>(k)];
      const double x = static_cast<double>(t);
      const double kb = e.eval(x) - (t > 0 ? e.eval(x - 1.0) : 0.0);
      if (kb <= 0.0) continue;
      node->enqueue(sim::Chunk{k, kb, kb, x, x, 0.0, seq++});
      if (k == tagged) ++tagged_queued;
    }
    done.clear();
    node->serve(kCapacity, &done);
    for (const sim::Chunk& c : done) {
      if (c.flow != tagged) continue;
      --tagged_queued;
      worst = std::max(worst, static_cast<double>(t + 1) - c.arrival);
    }
  }
  return worst;
}

/// The time a concave, strictly increasing envelope reaches `kb`.
double reach_time(const nc::Curve& e, double kb) {
  const std::vector<nc::Knot>& k = e.knots();
  if (kb <= k.front().y) return 0.0;
  std::size_t i = 0;
  while (i + 1 < k.size() && k[i + 1].y <= kb) ++i;
  return k[i].x + (kb - k[i].y) / k[i].slope;
}

/// Event simulator: flow k's n-th packet of kPacketKb arrives when E_k
/// reaches n * kPacketKb.  Returns the largest tagged delay in ms.
double replay_packets(const Keyed& s, std::span<const nc::Curve> env,
                      int tagged, double horizon) {
  // (time, tagged last among equal times, flow)
  std::vector<std::tuple<double, bool, int>> arrivals;
  for (int k = 0; k < 3; ++k) {
    const nc::Curve& e = env[static_cast<std::size_t>(k)];
    for (int n = 1;; ++n) {
      const double t = reach_time(e, n * kPacketKb);
      if (t >= horizon) break;
      arrivals.emplace_back(t, k == tagged, k);
    }
  }
  std::sort(arrivals.begin(), arrivals.end());
  evsim::Server server(kCapacity,
                       evsim::make_delta_key_policy(s.level, s.offset));
  double worst = 0.0;
  const auto depart = [&] {
    const evsim::Departure d = server.complete_one();
    if (d.packet.flow == tagged) {
      worst = std::max(worst, d.time - d.packet.arrival);
    }
  };
  std::uint64_t seq = 0;
  for (const auto& [t, is_tagged, k] : arrivals) {
    while (server.next_completion() <= t) depart();
    server.arrive(sim::Chunk{k, kPacketKb, kPacketKb, t, t, 0.0, seq++}, t);
  }
  while (server.busy()) depart();
  return worst;
}

/// Replays every scheduler with every flow tagged and checks the realized
/// worst delay against Eq. (24) in both simulators.
void expect_replay_meets_bound(std::span<const nc::Curve> env,
                               const std::vector<double>& deadlines,
                               const std::string& label) {
  const double horizon = 2.0 * busy_period(env) + 10.0;
  for (const Keyed& s : schedulers(deadlines)) {
    for (int j = 0; j < 3; ++j) {
      const auto flow = static_cast<std::size_t>(j);
      const double bound = sched::min_delay_bound(kCapacity, s.delta, env,
                                                  flow);
      ASSERT_TRUE(std::isfinite(bound)) << label << ' ' << s.name;
      const std::string where =
          label + ' ' + s.name + " flow " + std::to_string(j);
      // The analytic greedy scenario itself realizes the bound ...
      EXPECT_NEAR(
          sched::greedy_worst_case_delay(kCapacity, s.delta, env, flow),
          bound, 5e-3 * bound)
          << where;
      // ... and so does its replay: within one slot in the fluid slot
      // simulator, and one slot plus one non-preemptive packet time in
      // the packet simulator.
      const double slots = replay_slots(
          s, env, j, static_cast<std::int64_t>(std::ceil(horizon)));
      EXPECT_NEAR(slots, bound, 1.0) << where;
      const double packets = replay_packets(s, env, j, horizon);
      EXPECT_NEAR(packets, bound, 1.0 + kPacketKb / kCapacity) << where;
    }
  }
}

TEST(Theorem2Replay, LeakyBucketDrawsRealizeTheEq24Bound) {
  // The draws of bench/tightness_check.cpp.
  std::mt19937 rng(2010);
  std::uniform_real_distribution<double> rate(2.0, 20.0);
  std::uniform_real_distribution<double> burst(100.0, 4000.0);
  std::uniform_real_distribution<double> dl(5.0, 200.0);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<nc::Curve> env{
        nc::Curve::leaky_bucket(rate(rng), burst(rng)),
        nc::Curve::leaky_bucket(rate(rng), burst(rng)),
        nc::Curve::leaky_bucket(rate(rng), burst(rng))};
    const std::vector<double> deadlines{dl(rng), dl(rng), dl(rng)};
    expect_replay_meets_bound(env, deadlines,
                              "trial " + std::to_string(trial));
  }
}

TEST(Theorem2Replay, TSpecEnvelopesRealizeTheEq24Bound) {
  // Dual-bucket T-SPEC envelopes whose peak rates sum above C: the
  // backlog peaks after t = 0, so the maximizing t* is interior.
  const std::vector<nc::Curve> env{
      traffic::TSpec(60.0, 20.0, 10.0, 900.0).envelope(),
      traffic::TSpec(45.0, 10.0, 15.0, 600.0).envelope(),
      traffic::TSpec(50.0, 15.0, 5.0, 1200.0).envelope()};
  expect_replay_meets_bound(env, {30.0, 10.0, 60.0}, "tspec");
}

}  // namespace
}  // namespace deltanc
