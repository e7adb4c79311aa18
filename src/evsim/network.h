// The Fig.-1 tandem at packet granularity: MMOO aggregates are quantized
// into fixed-size packets at every slot boundary (sim::Fig1Sources, the
// slot simulator's arrival process) and travel through H non-preemptive
// servers.  Complements the slotted fluid simulator (src/sim) -- here a
// large packet in service genuinely blocks later higher-precedence
// packets, so the cost of the paper's fluid assumption can be measured
// directly.
#pragma once

#include <cstdint>

#include "sched/scheduler_spec.h"
#include "sim/stats.h"
#include "traffic/mmoo.h"

namespace deltanc::evsim {

struct EvNetworkConfig {
  double capacity_kb_per_ms = 100.0;
  int hops = 2;
  traffic::MmooSource source = traffic::MmooSource::paper_source();
  int n_through = 100;
  int n_cross = 100;
  double packet_kb = 1.5;  ///< quantization of the per-slot emissions
  /// The policy every server runs; any registered scheduler, lowered by
  /// sim::lower_scheduler as in the slot simulator, except that GPS runs
  /// as its packetized approximation SCFQ.
  sched::SchedulerSpec scheduler = sched::SchedulerSpec::fifo();
  /// EDF deadline unit in ms: kEdf deadlines are factor * edf_unit.  The
  /// default gives the default factors' deadlines 10 / 100 ms.
  double edf_unit = 10.0;
  std::int64_t slots = 100000;
  std::int64_t warmup_slots = 1000;
  std::uint64_t seed = 1;
};

struct EvNetworkResult {
  sim::DelayRecorder through_delay_ms;  ///< per-packet end-to-end delay
  double mean_utilization = 0.0;
};

/// Runs the event-driven tandem.  @throws std::invalid_argument on
/// malformed configuration (including a non-finite capacity, packet
/// size or edf_unit, a packet size or edf_unit <= 0, and a NaN Delta or
/// EDF factor).
[[nodiscard]] EvNetworkResult run_event_network(const EvNetworkConfig& cfg);

}  // namespace deltanc::evsim
