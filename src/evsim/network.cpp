#include "evsim/network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "evsim/server.h"
#include "sim/mmoo_source.h"
#include "sim/rng.h"

namespace deltanc::evsim {

namespace {

std::unique_ptr<Policy> make_policy(const EvNetworkConfig& c) {
  const sched::SchedulerSpec& s = c.scheduler;
  switch (s.kind()) {
    case sched::SchedulerKind::kFifo:
    case sched::SchedulerKind::kBmux:
    case sched::SchedulerKind::kSpHigh:
    case sched::SchedulerKind::kEdf:
    case sched::SchedulerKind::kDelta: {
      // Definition 1: one level, the spec's per-class offsets.
      const sched::ClassOffsets o = s.class_offsets(c.edf_unit);
      return make_delta_key_policy({0, 0}, {o.through, o.cross});
    }
    case sched::SchedulerKind::kGps:
      // SCFQ is the packetized approximation of GPS this simulator has.
      return make_scfq_policy(
          {s.weights().through(), s.weights().cross_total()});
    case sched::SchedulerKind::kDrr:
      // The DRR guarantee depends only on Q_0 and the sum, so the cross
      // quanta collapse onto their sum (mirrors sim::make_discipline).
      return make_drr_policy(
          {s.weights().through(), s.weights().cross_total()});
    case sched::SchedulerKind::kSced: {
      // Load-proportional rate split from the configured flow counts,
      // the same rule sched::ScedProvider applies analytically.
      const double total = static_cast<double>(c.n_through + c.n_cross);
      return make_sced_policy({c.capacity_kb_per_ms * c.n_through / total,
                               c.capacity_kb_per_ms * c.n_cross / total});
    }
  }
  throw std::invalid_argument("run_event_network: unknown scheduler kind");
}

bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

}  // namespace

EvNetworkResult run_event_network(const EvNetworkConfig& cfg) {
  if (cfg.hops < 1 || cfg.n_through < 1 || cfg.n_cross < 0 ||
      cfg.slots < 1 || cfg.warmup_slots < 0 ||
      !positive_finite(cfg.packet_kb) ||
      !positive_finite(cfg.capacity_kb_per_ms) ||
      !positive_finite(cfg.edf_unit)) {
    throw std::invalid_argument("run_event_network: malformed configuration");
  }

  sim::Xoshiro256ss rng(cfg.seed);
  sim::MmooAggregateSim through_src(cfg.source, cfg.n_through, rng);
  std::vector<sim::Xoshiro256ss> cross_rngs;
  std::vector<sim::MmooAggregateSim> cross_srcs;
  cross_rngs.reserve(static_cast<std::size_t>(cfg.hops));
  cross_srcs.reserve(static_cast<std::size_t>(cfg.hops));
  for (int h = 0; h < cfg.hops; ++h) {
    rng.jump();
    cross_rngs.push_back(rng);
    cross_srcs.emplace_back(cfg.source, cfg.n_cross, cross_rngs.back());
  }

  std::vector<Server> servers;
  servers.reserve(static_cast<std::size_t>(cfg.hops));
  for (int h = 0; h < cfg.hops; ++h) {
    servers.emplace_back(cfg.capacity_kb_per_ms, make_policy(cfg));
  }

  EvNetworkResult result;
  std::uint64_t seq = 0;
  std::vector<double> leftover(static_cast<std::size_t>(cfg.hops) + 1, 0.0);

  // Drains all transmissions completing strictly before `horizon`,
  // forwarding through packets to the next hop at their completion time.
  const auto drain_until = [&](double horizon) {
    while (true) {
      int earliest = -1;
      double t_min = horizon;
      for (int h = 0; h < cfg.hops; ++h) {
        const double t = servers[h].next_completion();
        if (t < t_min) {
          t_min = t;
          earliest = h;
        }
      }
      if (earliest < 0) break;
      const Departure dep = servers[earliest].complete_one();
      if (dep.packet.flow != 0) continue;  // cross traffic exits
      if (earliest + 1 < cfg.hops) {
        servers[earliest + 1].arrive(dep.packet, dep.time);
      } else if (dep.packet.network_arrival >=
                 static_cast<double>(cfg.warmup_slots)) {
        result.through_delay_ms.add(dep.time - dep.packet.network_arrival);
      }
    }
  };

  const auto emit = [&](int node, int flow, double kb, std::size_t acc,
                        double now) {
    leftover[acc] += kb;
    while (leftover[acc] >= cfg.packet_kb) {
      leftover[acc] -= cfg.packet_kb;
      servers[node].arrive(
          Packet{flow, cfg.packet_kb, now, now, 0.0, seq++}, now);
    }
  };

  for (std::int64_t slot = 0; slot < cfg.slots; ++slot) {
    const double now = static_cast<double>(slot);
    drain_until(now);
    emit(0, 0, through_src.step(rng), 0, now);
    for (int h = 0; h < cfg.hops; ++h) {
      emit(h, 1, cross_srcs[h].step(cross_rngs[h]),
           static_cast<std::size_t>(h) + 1, now);
    }
  }
  drain_until(static_cast<double>(cfg.slots));

  double transmitted = 0.0;
  for (const Server& s : servers) transmitted += s.transmitted_kb();
  result.mean_utilization =
      transmitted / (cfg.capacity_kb_per_ms * static_cast<double>(cfg.slots) *
                     cfg.hops);
  return result;
}

}  // namespace deltanc::evsim
