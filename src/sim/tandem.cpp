#include "sim/tandem.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

namespace deltanc::sim {

namespace {

std::unique_ptr<Discipline> make_discipline(const TandemQueue& q) {
  switch (q.kind) {
    case TandemQueue::Kind::kDeltaKey:
      return make_delta_key({0, 0}, q.per_class);
    case TandemQueue::Kind::kFair:
      return make_gps(q.per_class);
    case TandemQueue::Kind::kDrr:
      return make_drr(q.per_class);
    case TandemQueue::Kind::kSced:
      return make_sced(q.per_class);
  }
  throw std::invalid_argument("run_tandem: unknown queue kind");
}

bool positive_finite(double x) { return x > 0.0 && std::isfinite(x); }

}  // namespace

TandemQueue lower_scheduler(const sched::SchedulerSpec& spec, double edf_unit,
                            double capacity, int n_through, int n_cross) {
  using Kind = TandemQueue::Kind;
  switch (spec.kind()) {
    case sched::SchedulerKind::kFifo:
    case sched::SchedulerKind::kBmux:
    case sched::SchedulerKind::kSpHigh:
    case sched::SchedulerKind::kEdf:
    case sched::SchedulerKind::kDelta: {
      const sched::ClassOffsets o = spec.class_offsets(edf_unit);
      return {Kind::kDeltaKey, {o.through, o.cross}};
    }
    case sched::SchedulerKind::kGps:
      return {Kind::kFair,
              {spec.weights().through(), spec.weights().cross_total()}};
    case sched::SchedulerKind::kDrr:
      return {Kind::kDrr,
              {spec.weights().through(), spec.weights().cross_total()}};
    case sched::SchedulerKind::kSced: {
      const double total = static_cast<double>(n_through + n_cross);
      return {Kind::kSced,
              {capacity * n_through / total, capacity * n_cross / total}};
    }
  }
  throw std::invalid_argument("lower_scheduler: unknown scheduler kind");
}

Fig1Sources::Fig1Sources(const traffic::MmooSource& source, int n_through,
                         int n_cross, int hops, std::uint64_t seed,
                         double packet_kb)
    : packet_kb_(packet_kb) {
  Xoshiro256ss rng(seed);
  const MmooAggregateSim through(source, n_through, rng);
  sources_.reserve(static_cast<std::size_t>(hops) + 1);
  for (int h = 0; h < hops; ++h) {
    rng.jump();
    Xoshiro256ss own = rng;
    const MmooAggregateSim cross(source, n_cross, own);
    sources_.push_back(Source{h, 1, own, cross});
  }
  // The through source keeps stepping the seed's stream after the jumps,
  // from the state the last cross substream also starts from.
  sources_.insert(sources_.begin(), Source{0, 0, rng, through});
}

TandemResult run_tandem(const TandemConfig& config) {
  if (config.hops < 1 || config.n_through < 1 || config.n_cross < 0 ||
      config.slots < 1 || config.warmup_slots < 0 ||
      !positive_finite(config.capacity_kb_per_slot) ||
      !(config.packet_kb >= 0.0 && std::isfinite(config.packet_kb)) ||
      !positive_finite(config.edf_unit)) {
    throw std::invalid_argument("run_tandem: malformed configuration");
  }

  Fig1Sources sources(config.source, config.n_through, config.n_cross,
                      config.hops, config.seed, config.packet_kb);
  const TandemQueue lowered =
      lower_scheduler(config.scheduler, config.edf_unit,
                      config.capacity_kb_per_slot, config.n_through,
                      config.n_cross);
  std::vector<std::unique_ptr<Discipline>> nodes;
  nodes.reserve(static_cast<std::size_t>(config.hops));
  for (int h = 0; h < config.hops; ++h) {
    nodes.push_back(make_discipline(lowered));
  }

  TandemResult result;
  double served_total = 0.0;
  std::vector<Chunk> completed;
  // Chunks finishing at node h in slot t enter node h+1 at slot t+1.
  std::vector<std::vector<Chunk>> in_flight(
      static_cast<std::size_t>(config.hops));

  for (std::int64_t slot = 0; slot < config.slots; ++slot) {
    const auto now = static_cast<double>(slot);
    // Arrivals carried over from the previous slot's completions.
    for (int h = 1; h < config.hops; ++h) {
      for (Chunk& chunk : in_flight[h]) {
        chunk.arrival = now;
        chunk.size_kb = chunk.total_kb;  // full size re-transmits downstream
        nodes[h]->enqueue(chunk);
      }
      in_flight[h].clear();
    }
    // Fresh arrivals: through at node 1, cross at every node.
    sources.next_slot(now, [&](int node, const Chunk& chunk) {
      nodes[node]->enqueue(chunk);
    });
    // Serve one slot everywhere.
    for (int h = 0; h < config.hops; ++h) {
      completed.clear();
      served_total += nodes[h]->serve(config.capacity_kb_per_slot, &completed);
      for (const Chunk& chunk : completed) {
        if (chunk.flow != 0) continue;  // cross traffic leaves the network
        if (h + 1 < config.hops) {
          in_flight[h + 1].push_back(chunk);
        } else if (chunk.origin >= static_cast<double>(config.warmup_slots)) {
          result.through_delay.add(static_cast<double>(slot + 1) -
                                   chunk.origin);
        }
      }
    }
  }

  result.mean_utilization =
      served_total / (config.capacity_kb_per_slot *
                      static_cast<double>(config.slots) * config.hops);
  return result;
}

}  // namespace deltanc::sim
