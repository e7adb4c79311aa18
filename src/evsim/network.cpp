#include "evsim/network.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "evsim/server.h"
#include "sim/tandem.h"

namespace deltanc::evsim {

namespace {

std::unique_ptr<Policy> make_policy(const sim::TandemQueue& q) {
  switch (q.kind) {
    case sim::TandemQueue::Kind::kDeltaKey:
      return make_delta_key_policy({0, 0}, q.per_class);
    case sim::TandemQueue::Kind::kFair:
      // SCFQ is the packetized approximation of GPS this simulator has.
      return make_scfq_policy(q.per_class);
    case sim::TandemQueue::Kind::kDrr:
      return make_drr_policy(q.per_class);
    case sim::TandemQueue::Kind::kSced:
      return make_sced_policy(q.per_class);
  }
  throw std::invalid_argument("run_event_network: unknown queue kind");
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

  sim::Fig1Sources sources(cfg.source, cfg.n_through, cfg.n_cross, cfg.hops,
                           cfg.seed, cfg.packet_kb);
  const sim::TandemQueue lowered =
      sim::lower_scheduler(cfg.scheduler, cfg.edf_unit,
                           cfg.capacity_kb_per_ms, cfg.n_through, cfg.n_cross);
  std::vector<Server> servers;
  servers.reserve(static_cast<std::size_t>(cfg.hops));
  for (int h = 0; h < cfg.hops; ++h) {
    servers.emplace_back(cfg.capacity_kb_per_ms, make_policy(lowered));
  }

  EvNetworkResult result;

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
      } else if (dep.packet.origin >= static_cast<double>(cfg.warmup_slots)) {
        result.through_delay_ms.add(dep.time - dep.packet.origin);
      }
    }
  };

  for (std::int64_t slot = 0; slot < cfg.slots; ++slot) {
    const auto now = static_cast<double>(slot);
    drain_until(now);
    sources.next_slot(now, [&](int node, const sim::Chunk& packet) {
      servers[node].arrive(packet, now);
    });
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
