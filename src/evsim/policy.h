// Non-preemptive packet scheduling policies for the event-driven
// simulator.  Unlike the slotted fluid simulator (src/sim), packets here
// are indivisible: once transmission starts it runs to completion, which
// exposes the blocking effects the paper's fluid model deliberately
// ignores ("we ignore that packet transmissions cannot be interrupted").
//
// The paper's Definition 1 makes FIFO, static priority and EDF one rule,
// and make_delta_key_policy is that rule: a packet of class f arriving at
// time t is served in the order of
//
//   (level[f], highest first;  t + offset[f], earliest first;  seq).
//
// FIFO is all levels and offsets 0; static priority puts the classes on
// distinct levels and is non-preemptive here (a packet in service blocks
// higher levels for up to L/C -- priority inversion); EDF sets offset[f]
// = d*_f; a Delta of +/-inf is an infinite offset on one class
// (sched::SchedulerSpec::class_offsets).
//
// The curve-backed policies:
//   SCFQ  -- self-clocked fair queueing (Golestani), the standard
//            packetized approximation of GPS via virtual finish tags;
//   DRR   -- deficit round robin (Shreedhar & Varghese): per-class
//            quanta and deficit counters, one whole packet per grant;
//   SCED  -- deadline-curve scheduling (arXiv:1804.08040): a per-class
//            virtual server of rate R_f stamps each packet's deadline.
// SCFQ and SCED only stamp `tag`; the Delta-key queue, all classes on
// one level, picks the earliest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace deltanc::evsim {

/// One indivisible packet.
struct Packet {
  int flow;                 ///< flow class
  double size_kb;           ///< transmission size
  double node_arrival;      ///< arrival time at the current node (ms)
  double network_arrival;   ///< arrival into the network (ms)
  double tag;               ///< service-order key, stamped at enqueue:
                            ///< node_arrival + offset, or the SCED
                            ///< deadline / SCFQ finish tag
  std::uint64_t seq;        ///< global arrival order tie-breaker
};

/// Packet selection policy (the queue of one server).
class Policy {
 public:
  virtual ~Policy() = default;

  /// Admits a packet (stamping `tag` as the policy requires).
  virtual void enqueue(Packet packet) = 0;
  /// Removes and returns the next packet to transmit; nullopt when empty.
  virtual std::optional<Packet> dequeue() = 0;
  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual double backlog_kb() const = 0;
};

/// The Definition-1 policy: class f's packets are served in the order of
/// (level[f], highest first; node_arrival + offset[f] in ms, earliest
/// first; seq).  An offset may be +/-inf.
/// @throws std::invalid_argument on empty or mismatched vectors or a NaN
/// offset.
[[nodiscard]] std::unique_ptr<Policy> make_delta_key_policy(
    std::vector<int> level, std::vector<double> offset);

/// Self-clocked fair queueing with per-class weights.
[[nodiscard]] std::unique_ptr<Policy> make_scfq_policy(
    std::vector<double> weights);

/// Deficit round robin with per-class quanta (kb).  dequeue() walks the
/// round-robin order, charging each backlogged class's quantum once per
/// visit, until some class's deficit covers its head packet; quanta
/// smaller than a packet simply take several rounds to accumulate.  The
/// deficit of a class that drains empty is forfeited.
[[nodiscard]] std::unique_ptr<Policy> make_drr_policy(
    std::vector<double> quanta);

/// SCED with rate service curves: flow f's packets get the deadline
/// max(F_f, node_arrival) + size / rate_f (F_f = the class's virtual
/// finish time, rates in kb/ms) and transmit earliest-deadline-first.
/// A zero rate is allowed only for classes that never receive traffic
/// (enqueue throws otherwise).
[[nodiscard]] std::unique_ptr<Policy> make_sced_policy(
    std::vector<double> rates);

}  // namespace deltanc::evsim
