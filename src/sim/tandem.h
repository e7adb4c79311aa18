// The multi-node network of Fig. 1, simulated slot by slot: a through
// aggregate traverses H identical nodes; at each node an independent
// cross aggregate joins, is served, and leaves.  Used to validate the
// analytic end-to-end bounds (the empirical delay quantile at level
// 1 - epsilon must lie below the bound) and to contrast scheduler
// behaviour empirically.
//
// Conventions: 1 slot = 1 ms (T = 1 ms in the paper).  Flow class 0 is
// the through aggregate, class 1 the cross aggregate at each node.  A
// chunk that completes service at node h in slot t enters node h+1 at
// slot t+1; the end-to-end delay of a chunk is
// (completion slot at node H) + 1 - (arrival slot at node 1), i.e. the
// number of slot boundaries from arrival to full delivery.
//
// The scheduler lowering (lower_scheduler) and the arrival process
// (Fig1Sources) are shared with the packet tandem of src/evsim.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/scheduler_spec.h"
#include "sim/mmoo_source.h"
#include "sim/rng.h"
#include "sim/scheduler_queue.h"
#include "sim/stats.h"
#include "traffic/mmoo.h"

namespace deltanc::sim {

struct TandemConfig {
  double capacity_kb_per_slot = 100.0;  ///< C = 100 Mbps at 1 ms slots
  int hops = 2;
  traffic::MmooSource source = traffic::MmooSource::paper_source();
  int n_through = 100;  ///< N_0 through flows (aggregated)
  int n_cross = 100;    ///< N_c cross flows per node (aggregated)
  /// The discipline every node runs; any registered scheduler, lowered
  /// by lower_scheduler.
  sched::SchedulerSpec scheduler = sched::SchedulerSpec::fifo();
  /// EDF deadline unit in slots: kEdf deadlines are factor * edf_unit
  /// (the analytic layer uses d_e2e / H).  The default gives the default
  /// factors' deadlines 10 / 100.
  double edf_unit = 10.0;
  std::int64_t slots = 200000;
  std::int64_t warmup_slots = 2000;  ///< delays of chunks arriving before
                                     ///< this slot are discarded
  std::uint64_t seed = 1;
  /// Emission granularity in kb: 0 = one fluid chunk per aggregate per
  /// slot (the paper's fluid model); > 0 = whole packets of this size
  /// (remainders accumulate across slots).  Per-packet delays are then
  /// recorded individually -- used to probe the paper's "packet sizes
  /// are small relative to the rate" assumption.
  double packet_kb = 0.0;
};

struct TandemResult {
  DelayRecorder through_delay;    ///< end-to-end delay per chunk, in slots
  double mean_utilization = 0.0;  ///< served / capacity averaged over nodes
};

/// Runs the tandem simulation.  @throws std::invalid_argument on
/// malformed configuration (including a non-finite capacity, packet
/// size or edf_unit, edf_unit <= 0, and a NaN Delta or EDF factor).
[[nodiscard]] TandemResult run_tandem(const TandemConfig& config);

/// The queue a scheduler lowers onto at every node of the two-class
/// tandem (class 0 = through, 1 = cross), in either simulator.
struct TandemQueue {
  enum class Kind {
    kDeltaKey,  ///< Definition 1 on one level; per_class = the offsets
    kFair,      ///< fluid GPS, or SCFQ in evsim; per_class = the weights
    kDrr,       ///< deficit round robin; per_class = the quanta (kb)
    kSced,      ///< finish tags; per_class = the rates (kb per slot)
  };
  Kind kind;
  std::vector<double> per_class;
};

/// The lowering of every registered scheduler: each Delta-kind is the
/// Definition-1 queue with the offsets SchedulerSpec::class_offsets
/// (edf_unit); GPS and DRR collapse the cross classes onto (through(),
/// cross_total()), since the DRR guarantee depends only on Q_0 and the
/// sum; SCED splits `capacity` by the flow counts, the rule
/// SchedulerSpec::rate_latency applies analytically (every flow is an
/// i.i.d. copy of one source, so the class loads are proportional to
/// them).
[[nodiscard]] TandemQueue lower_scheduler(const sched::SchedulerSpec& spec,
                                          double edf_unit, double capacity,
                                          int n_through, int n_cross);

/// Fig. 1's arrival process: the through aggregate enters node 0, and
/// node h's cross aggregate enters node h.  Each cross source draws from
/// its own jumped substream of the seed's stream, and the through source
/// from the seed's stream itself.  With packet_kb 0 a source emits one
/// fluid chunk per slot (none when it is silent); with packet_kb > 0 it
/// emits whole packets of that size and carries its remainder to the
/// next slot.  One counter numbers every chunk (Chunk::seq).
class Fig1Sources {
 public:
  /// @throws std::invalid_argument on negative flow counts.
  Fig1Sources(const traffic::MmooSource& source, int n_through, int n_cross,
              int hops, std::uint64_t seed, double packet_kb);

  /// Draws the arrivals at time `now` and hands each chunk to
  /// admit(node, chunk) as it is emitted: the through source's first,
  /// then each node's cross source in node order.
  template <typename Admit>
  void next_slot(double now, Admit&& admit) {
    for (Source& s : sources_) {
      const double kb = s.sim.step(s.rng);
      if (packet_kb_ <= 0.0) {
        if (kb > 0.0) {
          admit(s.node, Chunk{s.flow, kb, kb, now, now, 0.0, seq_++});
        }
        continue;
      }
      s.leftover += kb;
      while (s.leftover >= packet_kb_) {
        s.leftover -= packet_kb_;
        admit(s.node, Chunk{s.flow, packet_kb_, packet_kb_, now, now, 0.0,
                            seq_++});
      }
    }
  }

 private:
  struct Source {
    int node;
    int flow;
    Xoshiro256ss rng;
    MmooAggregateSim sim;
    double leftover = 0.0;  ///< kb short of a whole packet
  };

  double packet_kb_;
  std::vector<Source> sources_;  ///< through first, then node order
  std::uint64_t seq_ = 0;
};

}  // namespace deltanc::sim
