// Non-preemptive packet scheduling policies for the event-driven
// simulator.  Unlike the slotted fluid simulator (src/sim), packets here
// are indivisible: once transmission starts it runs to completion, which
// exposes the blocking effects the paper's fluid model deliberately
// ignores ("we ignore that packet transmissions cannot be interrupted").
//
// Every Delta-kind pops the Definition-1 queue the slot simulator serves
// from (sim::KeyQueue, sim/scheduler_queue.h).  Static priority is
// non-preemptive here: a packet in service blocks higher levels for up
// to L/C (priority inversion).
//
// The curve-backed policies:
//   SCFQ  -- self-clocked fair queueing (Golestani), the standard
//            packetized approximation of GPS via virtual finish tags;
//   DRR   -- deficit round robin (Shreedhar & Varghese): per-class
//            quanta and deficit counters, one whole packet per grant;
//   SCED  -- deadline-curve scheduling (arXiv:1804.08040): a per-class
//            virtual server of rate R_f stamps each packet's deadline.
// SCFQ and SCED pop the finish-tag sim::KeyQueue, all classes on one
// level.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/scheduler_queue.h"

namespace deltanc::evsim {

/// Packet selection policy (the queue of one server).  A packet is a
/// sim::Chunk that is never split: its size_kb stays its total_kb.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Admits a packet (stamping its key as the policy requires).
  virtual void enqueue(sim::Chunk packet) = 0;
  /// Removes and returns the next packet to transmit; nullopt when empty.
  virtual std::optional<sim::Chunk> dequeue() = 0;
  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual double backlog_kb() const = 0;
};

/// The Definition-1 policy: sim::KeyQueue(level, offset), offsets in ms.
/// @throws std::invalid_argument as sim::KeyQueue does.
[[nodiscard]] std::unique_ptr<Policy> make_delta_key_policy(
    std::vector<int> level, std::vector<double> offset);

/// Self-clocked fair queueing (Golestani) with per-class weights: the
/// finish tags of sim::KeyQueue::finish_tags with the weights as rates,
/// stamped from the tag of the packet sent last (the virtual time).
[[nodiscard]] std::unique_ptr<Policy> make_scfq_policy(
    std::vector<double> weights);

/// Deficit round robin with per-class quanta (kb).  dequeue() walks the
/// round-robin order, charging each backlogged class's quantum once per
/// visit, until some class's deficit covers its head packet; quanta
/// smaller than a packet simply take several rounds to accumulate.  The
/// deficit of a class that drains empty is forfeited.
[[nodiscard]] std::unique_ptr<Policy> make_drr_policy(
    std::vector<double> quanta);

/// SCED with rate service curves (kb/ms): sim::KeyQueue::finish_tags,
/// stamped from each packet's arrival; the earliest deadline is sent
/// next.
[[nodiscard]] std::unique_ptr<Policy> make_sced_policy(
    std::vector<double> rates);

}  // namespace deltanc::evsim
