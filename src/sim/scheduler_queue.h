// Work-conserving link disciplines for the slot-based simulator.
//
// The simulator moves fluid "chunks" (one per flow aggregate per slot).
// Each discipline decides the order in which backlogged chunks drain a
// per-slot service budget; partial service splits a chunk.
//
// The paper's Definition 1 makes FIFO, static priority and EDF one rule,
// and make_delta_key is that rule: a chunk of class f arriving in slot t
// is served in the order of
//
//   (level[f], highest first;  t + offset[f], earliest first;  seq).
//
// FIFO is all levels and offsets 0, static priority puts the classes on
// distinct levels, EDF sets offset[f] = d*_f, and a Delta of +/-inf is an
// infinite offset on one class (sched::SchedulerSpec::class_offsets).
//
// The other disciplines condition on the backlog, so they are not
// Delta-schedulers (Section III) but curve-backed
// (sched/service_curve_provider.h):
//
//   GPS   -- fluid weighted fair sharing, the paper's counterexample.
//   DRR   -- deficit round robin (Shreedhar & Varghese): per-class
//            quanta and deficit counters, visited in round-robin order.
//   SCED  -- deadline-curve scheduling (arXiv:1804.08040): each class
//            runs a virtual server of rate R_f that stamps a deadline,
//            and the Delta-key queue serves the stamps on one level.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace deltanc::sim {

/// A fluid chunk of traffic from one flow class.
struct Chunk {
  int flow;                   ///< flow class index
  double size_kb;             ///< remaining (unserved) size
  double total_kb;            ///< original size -- restored when the chunk
                              ///< is forwarded to the next node
  std::int64_t arrival_slot;  ///< arrival at the *current* node
  std::int64_t origin_slot;   ///< arrival into the network (end-to-end delay)
  double deadline;            ///< service-order key, stamped at enqueue:
                              ///< arrival_slot + offset, or the SCED
                              ///< virtual finish time
  std::uint64_t seq;          ///< global tie-breaker (arrival order)
};

/// Interface: a work-conserving scheduling discipline over flow classes.
class Discipline {
 public:
  virtual ~Discipline() = default;

  /// Admits a chunk to the queue (the discipline may stamp its
  /// deadline).
  virtual void enqueue(Chunk chunk) = 0;

  /// Serves up to `budget` kb.  Fully-served chunks are appended to
  /// `completed`; a partially-served head chunk stays queued with its
  /// size reduced.  Returns the amount actually served (work conserving:
  /// min(budget, backlog)).
  virtual double serve(double budget, std::vector<Chunk>* completed) = 0;

  /// Total backlogged kb.
  [[nodiscard]] virtual double backlog() const = 0;
};

/// The Definition-1 discipline: class f's chunks are served in the order
/// of (level[f], highest first; arrival_slot + offset[f], earliest first;
/// seq).  An offset may be +/-inf.
/// @throws std::invalid_argument on empty or mismatched vectors or a NaN
/// offset.
[[nodiscard]] std::unique_ptr<Discipline> make_delta_key(
    std::vector<int> level, std::vector<double> offset);

/// Fluid GPS with per-class weights: every backlogged class drains
/// simultaneously in proportion to its weight (progressive filling
/// within each slot).
[[nodiscard]] std::unique_ptr<Discipline> make_gps(
    std::vector<double> weights);

/// Deficit round robin with per-class quanta (kb).  Each round-robin
/// visit to a backlogged class charges its quantum onto a deficit
/// counter and serves at most that much; a visit interrupted by budget
/// exhaustion resumes next slot without re-charging, and the deficit of
/// a class that drains empty is forfeited (Shreedhar & Varghese).
[[nodiscard]] std::unique_ptr<Discipline> make_drr(
    std::vector<double> quanta);

/// SCED with rate service curves: class f's chunks are stamped with the
/// deadline max(F_f, arrival) + size / rate_f, where F_f is the class's
/// virtual finish time, and served by the Delta-key order on one level.
/// Rates are in kb per slot; a zero rate is allowed only for classes that
/// never receive traffic (enqueue throws otherwise).
[[nodiscard]] std::unique_ptr<Discipline> make_sced(
    std::vector<double> rates);

}  // namespace deltanc::sim
