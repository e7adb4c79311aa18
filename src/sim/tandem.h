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
#pragma once

#include <cstdint>

#include "sched/scheduler_spec.h"
#include "sim/stats.h"
#include "traffic/mmoo.h"

namespace deltanc::sim {

struct TandemConfig {
  double capacity_kb_per_slot = 100.0;  ///< C = 100 Mbps at 1 ms slots
  int hops = 2;
  traffic::MmooSource source = traffic::MmooSource::paper_source();
  int n_through = 100;  ///< N_0 through flows (aggregated)
  int n_cross = 100;    ///< N_c cross flows per node (aggregated)
  /// The discipline every node runs; any registered scheduler.  Every
  /// Delta-kind runs as make_delta_key with the offsets
  /// SchedulerSpec::class_offsets, GPS and DRR with the cross classes
  /// collapsed onto (through(), cross_total()), and SCED with the rates
  /// split by the flow counts.
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
  /// Record each node's total backlog every `backlog_stride` slots
  /// (0 disables backlog recording).
  std::int64_t backlog_stride = 0;
};

struct TandemResult {
  DelayRecorder through_delay;    ///< end-to-end delay per chunk, in slots
  double mean_utilization = 0.0;  ///< served / capacity averaged over nodes
  /// Per-node total backlog samples (kb), when backlog_stride > 0.
  std::vector<DelayRecorder> node_backlog;
};

/// Runs the tandem simulation.  @throws std::invalid_argument on
/// malformed configuration (including a non-finite capacity, packet
/// size or edf_unit, edf_unit <= 0, and a NaN Delta or EDF factor).
[[nodiscard]] TandemResult run_tandem(const TandemConfig& config);

}  // namespace deltanc::sim
