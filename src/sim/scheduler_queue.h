// The queue core of both simulators: the element they carry, the
// Definition-1 queue they serve from, and the slot simulator's
// work-conserving disciplines.
//
// The slot simulator (src/sim) moves fluid "chunks" (one per flow
// aggregate per slot, or whole packets); each discipline decides the
// order in which backlogged chunks drain a per-slot service budget, and
// partial service splits a chunk.  The event simulator (src/evsim) pops
// whole chunks from the same queue and transmits them one at a time.
//
// The paper's Definition 1 makes FIFO, static priority and EDF one rule,
// and KeyQueue is that rule: a chunk of class f arriving at time t is
// served in the order of
//
//   (level[f], highest first;  t + offset[f], earliest first;  seq).
//
// FIFO is all levels and offsets 0, static priority puts the classes on
// distinct levels, EDF sets offset[f] = d*_f, and a Delta of +/-inf is an
// infinite offset on one class (sched::SchedulerSpec::class_offsets).
//
// The other disciplines condition on the backlog, so they are not
// Delta-schedulers (Section III) but curve-backed
// (sched::SchedulerSpec::rate_latency):
//
//   GPS   -- fluid weighted fair sharing, the paper's counterexample.
//   DRR   -- deficit round robin (Shreedhar & Varghese): per-class
//            quanta and deficit counters, visited in round-robin order.
//   SCED  -- deadline-curve scheduling (arXiv:1804.08040): each class
//            runs a virtual server of rate R_f that stamps a finish tag,
//            and the KeyQueue serves the tags on one level.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace deltanc::sim {

/// A chunk of traffic from one flow class: a fluid piece or a whole
/// packet.  Times are in slots (slot simulator) or ms (event simulator);
/// whole slot numbers are exact as doubles.
struct Chunk {
  int flow;            ///< flow class index
  double size_kb;      ///< remaining (unserved) size
  double total_kb;     ///< original size -- restored when the chunk is
                       ///< forwarded to the next node
  double arrival;      ///< arrival at the *current* node
  double origin;       ///< arrival into the network (end-to-end delay)
  double key;          ///< service-order key, stamped at admission by
                       ///< the KeyQueue
  std::uint64_t seq;   ///< global tie-breaker (arrival order)
};

/// Interface: a work-conserving scheduling discipline over flow classes.
class Discipline {
 public:
  virtual ~Discipline() = default;

  /// Admits a chunk to the queue (the discipline may stamp its key).
  virtual void enqueue(Chunk chunk) = 0;

  /// Serves up to `budget` kb.  Fully-served chunks are appended to
  /// `completed`; a partially-served head chunk stays queued with its
  /// size reduced.  Returns the amount actually served (work conserving:
  /// min(budget, backlog)).
  virtual double serve(double budget, std::vector<Chunk>* completed) = 0;

  /// Total backlogged kb.
  [[nodiscard]] virtual double backlog() const = 0;
};

/// The Definition-1 queue: one heap in the order of (level[f], highest
/// first; key, earliest first; seq).  The key is stamped at admission
/// from a start time, by one of two rules:
///   * offsets (Definition 1): key = start + offset[f];
///   * finish tags, all classes on one level: key = F_f, where
///     F_f = max(F_f, start) + size / rate_f is class f's virtual finish
///     time.  SCED stamps from the arrival; SCFQ (evsim) stamps from the
///     tag last sent, with its weights as the rates.
/// As a Discipline it stamps from the chunk's arrival and serves the
/// head in place: a partly served head keeps its key, so it stays on top.
class KeyQueue final : public Discipline {
 public:
  /// Offset keys; an offset may be +/-inf.
  /// @throws std::invalid_argument on empty or mismatched vectors or a
  ///   NaN offset.
  KeyQueue(std::vector<int> level, std::vector<double> offset);

  /// Finish-tag keys.  A zero rate is allowed only for classes that
  /// never receive traffic (push throws otherwise).
  /// @throws std::invalid_argument on no rates or a rate that is not
  ///   >= 0.
  [[nodiscard]] static KeyQueue finish_tags(std::vector<double> rates);

  /// Stamps the chunk's key from `start` and admits it.
  /// @throws std::out_of_range on an unknown class, and
  ///   std::invalid_argument on a finish-tag class of rate 0.
  void push(Chunk chunk, double start);

  /// Removes and returns the head.  Requires !empty().
  Chunk pop();

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  void enqueue(Chunk chunk) override { push(chunk, chunk.arrival); }
  double serve(double budget, std::vector<Chunk>* completed) override;
  [[nodiscard]] double backlog() const override { return backlog_; }

 private:
  /// Drops the head from the heap; the backlog is the caller's.
  void remove_head();

  std::vector<int> level_;
  std::vector<double> offset_;
  std::vector<double> rate_;    ///< finish-tag rates; empty for offsets
  std::vector<double> finish_;  ///< F_f per class
  std::vector<Chunk> heap_;
  double backlog_ = 0.0;
};

/// The Definition-1 discipline: KeyQueue(level, offset).
/// @throws std::invalid_argument as KeyQueue does.
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

/// SCED with rate service curves (kb per slot): KeyQueue::finish_tags,
/// stamped from each chunk's arrival.
[[nodiscard]] std::unique_ptr<Discipline> make_sced(
    std::vector<double> rates);

}  // namespace deltanc::sim
