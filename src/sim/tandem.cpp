#include "sim/tandem.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/mmoo_source.h"
#include "sim/node.h"

namespace deltanc::sim {

namespace {

std::unique_ptr<Discipline> make_discipline(const TandemConfig& c) {
  const sched::SchedulerSpec& s = c.scheduler;
  switch (s.kind()) {
    case sched::SchedulerKind::kFifo:
    case sched::SchedulerKind::kBmux:
    case sched::SchedulerKind::kSpHigh:
    case sched::SchedulerKind::kEdf:
    case sched::SchedulerKind::kDelta: {
      // Definition 1: one level, the spec's per-class offsets.
      const sched::ClassOffsets o = s.class_offsets(c.edf_unit);
      return make_delta_key({0, 0}, {o.through, o.cross});
    }
    case sched::SchedulerKind::kGps:
      return make_gps({s.weights().through(), s.weights().cross_total()});
    case sched::SchedulerKind::kDrr:
      // The DRR guarantee depends only on Q_0 and the sum (quantum share
      // and round latency), so the cross quanta collapse onto their sum.
      return make_drr({s.weights().through(), s.weights().cross_total()});
    case sched::SchedulerKind::kSced: {
      // Load-proportional rate split: every flow is an i.i.d. copy of
      // the same source, so the class loads are proportional to the flow
      // counts (the rule sched::ScedProvider applies analytically).
      const double total = static_cast<double>(c.n_through + c.n_cross);
      return make_sced({c.capacity_kb_per_slot * c.n_through / total,
                        c.capacity_kb_per_slot * c.n_cross / total});
    }
  }
  throw std::invalid_argument("run_tandem: unknown scheduler kind");
}

bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

}  // namespace

TandemResult run_tandem(const TandemConfig& config) {
  if (config.hops < 1 || config.n_through < 1 || config.n_cross < 0 ||
      config.slots < 1 || config.warmup_slots < 0 ||
      !positive_finite(config.capacity_kb_per_slot) ||
      !(config.packet_kb >= 0.0 && std::isfinite(config.packet_kb)) ||
      !positive_finite(config.edf_unit) || config.backlog_stride < 0) {
    throw std::invalid_argument("run_tandem: malformed configuration");
  }

  // Independent random substreams: one for the through source, one per
  // node's cross source.
  Xoshiro256ss rng(config.seed);
  MmooAggregateSim through_src(config.source, config.n_through, rng);
  std::vector<Xoshiro256ss> cross_rngs;
  std::vector<MmooAggregateSim> cross_srcs;
  cross_rngs.reserve(static_cast<std::size_t>(config.hops));
  cross_srcs.reserve(static_cast<std::size_t>(config.hops));
  for (int h = 0; h < config.hops; ++h) {
    rng.jump();
    cross_rngs.push_back(rng);
    cross_srcs.emplace_back(config.source, config.n_cross, cross_rngs.back());
  }

  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(config.hops));
  for (int h = 0; h < config.hops; ++h) {
    nodes.emplace_back(config.capacity_kb_per_slot, make_discipline(config));
  }

  TandemResult result;
  if (config.backlog_stride > 0) {
    result.node_backlog.resize(static_cast<std::size_t>(config.hops));
  }
  std::uint64_t seq = 0;
  double served_total = 0.0;
  std::vector<Chunk> completed;
  // Chunks finishing at node h in slot t enter node h+1 at slot t+1.
  std::vector<std::vector<Chunk>> in_flight(
      static_cast<std::size_t>(config.hops));
  // Fractional-packet accumulators: index 0 = through source, 1..H = the
  // per-node cross sources.
  std::vector<double> leftover(static_cast<std::size_t>(config.hops) + 1, 0.0);

  // Emits the slot's arrivals, either as one fluid chunk or quantized
  // into whole packets of packet_kb.
  const auto emit = [&](int node, int flow, double kb, std::size_t acc,
                        std::int64_t slot) {
    if (config.packet_kb <= 0.0) {
      if (kb > 0.0) {
        nodes[node].arrive(Chunk{flow, kb, kb, slot, slot, 0.0, seq++});
      }
      return;
    }
    leftover[acc] += kb;
    while (leftover[acc] >= config.packet_kb) {
      leftover[acc] -= config.packet_kb;
      nodes[node].arrive(Chunk{flow, config.packet_kb, config.packet_kb,
                               slot, slot, 0.0, seq++});
    }
  };

  for (std::int64_t slot = 0; slot < config.slots; ++slot) {
    // Arrivals carried over from the previous slot's completions.
    for (int h = 1; h < config.hops; ++h) {
      for (Chunk& chunk : in_flight[h]) {
        chunk.arrival_slot = slot;
        chunk.size_kb = chunk.total_kb;  // full size re-transmits downstream
        nodes[h].arrive(chunk);
      }
      in_flight[h].clear();
    }
    // Fresh through arrivals at node 1.
    emit(0, 0, through_src.step(rng), 0, slot);
    // Fresh cross arrivals at every node.
    for (int h = 0; h < config.hops; ++h) {
      emit(h, 1, cross_srcs[h].step(cross_rngs[h]),
           static_cast<std::size_t>(h) + 1, slot);
    }
    // Serve one slot everywhere.
    for (int h = 0; h < config.hops; ++h) {
      completed.clear();
      served_total += nodes[h].advance(&completed);
      for (const Chunk& chunk : completed) {
        if (chunk.flow != 0) continue;  // cross traffic leaves the network
        if (h + 1 < config.hops) {
          in_flight[h + 1].push_back(chunk);
        } else if (chunk.origin_slot >= config.warmup_slots) {
          result.through_delay.add(
              static_cast<double>(slot + 1 - chunk.origin_slot));
        }
      }
    }
    if (config.backlog_stride > 0 && slot >= config.warmup_slots &&
        slot % config.backlog_stride == 0) {
      for (int h = 0; h < config.hops; ++h) {
        result.node_backlog[static_cast<std::size_t>(h)].add(
            nodes[h].backlog());
      }
    }
  }

  result.mean_utilization =
      served_total / (config.capacity_kb_per_slot *
                      static_cast<double>(config.slots) * config.hops);
  return result;
}

}  // namespace deltanc::sim
